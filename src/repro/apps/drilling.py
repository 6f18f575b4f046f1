"""Appendix 9.1: the drilling cell — Birman's CATOCS design vs a central controller.

Input: a set of holes to drill across D driller controllers.  Output: every
hole drilled exactly once, plus a checklist of holes whose state is unknown
because a driller failed mid-hole.

**CATOCS design** (Birman [3]): the cell controller causally multicasts the
full drilling request to the driller group; each driller schedules
deterministically from the shared broadcast (hole i -> driller i mod D) and
multicasts every completion to the whole group so all replicas track
progress.  Elegant and decentralised — and every completion fans out to D
receivers, so traffic is ~(H+1) multicasts = (H+1)·D point-to-point messages
("the communication traffic is ... quadratic as claimed for Birman's
solution").  On a driller failure the view change lets survivors reschedule;
the dead driller's in-progress hole goes on the checklist.

**State design** (the paper's): a central cell controller assigns holes one
at a time over point-to-point messages, drillers report back, and the
controller mirrors its assignment state to one backup.  Traffic is linear in
H and independent of D fanout.  Failure handling is a timeout + reassign,
with the in-progress hole checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.catocs import HeartbeatDetector, ViewManager
from repro.catocs.member import GroupMember
from repro.sim.failure import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.network import LinkModel, Network
from repro.sim.process import Process


@dataclass
class DrillingResult:
    design: str
    drillers: int
    holes: int
    completed: Set[int]
    checklist: Set[int]
    double_drilled: int
    app_messages: int
    completion_time: float

    @property
    def all_accounted(self) -> bool:
        return self.completed | self.checklist >= set(range(self.holes))


#: The CATOCS cell's failure-detector timeout.
HEARTBEAT_TIMEOUT = 35.0


def _settled(drill_time: float, holes: int) -> float:
    """Where both designs' runs end: the job drilled by one driller alone,
    then ten detector timeouts, by when any view change and every hole's
    fan-out are done and only keepalives (CATOCS) or nothing (central)
    remain.  One horizon for both keeps their records comparable."""
    return drill_time * holes + 10 * HEARTBEAT_TIMEOUT


# ---------------------------------------------------------------------------
# CATOCS design
# ---------------------------------------------------------------------------


class CatocsDriller(GroupMember):
    """A driller controller scheduling independently from the shared broadcast.

    Every member maintains the same assignment map (hole -> driller),
    derived deterministically from the shared request broadcast and the
    delivered completion messages, so no two drillers ever pick the same
    hole — provided virtual synchrony keeps their views of the delivered
    message set aligned across view changes, which is precisely the property
    the design leans on.
    """

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 members: Sequence[str], drill_time: float, **kwargs: Any) -> None:
        super().__init__(sim, network, pid, group="drill", members=members,
                         ordering="causal", **kwargs)
        self.drill_time = drill_time
        self.holes: List[int] = []
        #: deterministic, replicated assignment map: hole -> driller pid
        self.assignment: Dict[int, str] = {}
        self._drillers: List[str] = []
        self.done: Set[int] = set()
        self.drilled_by_me: List[int] = []
        self.in_progress: Optional[int] = None
        self.checklist: Set[int] = set()
        self.on_deliver = self._dispatch

    def _my_holes(self) -> List[int]:
        return [
            h for h in self.holes
            if self.assignment.get(h) == self.pid
            and h not in self.done and h not in self.checklist
        ]

    def _dispatch(self, src: str, payload: Any, msg: Any) -> None:
        if payload.get("kind") == "request":
            self.holes = list(payload["holes"])
            self._drillers = sorted(m for m in self.view_members if m.startswith("driller"))
            count = len(self._drillers)
            self.assignment = {
                h: self._drillers[h % count] for h in self.holes
            }
            self._drill_next()
        elif payload.get("kind") == "done":
            self.done.add(payload["hole"])
            self._drill_next()

    def _drill_next(self) -> None:
        if self.in_progress is not None:
            return
        mine = self._my_holes()
        if not mine:
            return
        hole = mine[0]
        self.in_progress = hole
        self.set_timer(self.drill_time, self._finish_hole, hole)

    def _finish_hole(self, hole: int) -> None:
        self.in_progress = None
        if hole in self.done or hole in self.checklist:
            self._drill_next()
            return
        self.drilled_by_me.append(hole)
        self.multicast({"kind": "done", "hole": hole})
        self._drill_next()

    # -- failure handling: reschedule from shared knowledge ----------------------------

    def on_view_installed(self, install: Any) -> None:
        super().on_view_installed(install)
        survivors = sorted(
            m for m in self.view_members if m.startswith("driller")
        )
        dead = [d for d in self._drillers if d not in survivors]
        self._drillers = survivors
        for corpse in dead:
            remaining = sorted(
                h for h, owner in self.assignment.items()
                if owner == corpse and h not in self.done
            )
            if not remaining:
                continue
            # The earliest unfinished hole was (potentially) mid-drill when
            # the driller died: never re-drill, put it on the checklist.
            self.checklist.add(remaining[0])
            # The rest of its schedule is redistributed round-robin among
            # survivors — deterministically, so every member agrees.
            for offset, hole in enumerate(remaining[1:]):
                if survivors:
                    self.assignment[hole] = survivors[offset % len(survivors)]
        self._drill_next()


def run_drilling_catocs(
    seed: int = 0,
    drillers: int = 4,
    holes: int = 16,
    drill_time: float = 20.0,
    crash_driller_at: Optional[float] = None,
    latency: float = 3.0,
) -> DrillingResult:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=latency))
    pids = [f"driller{i}" for i in range(drillers)] + ["cell"]
    members: Dict[str, CatocsDriller] = {}
    for pid in pids:
        member = CatocsDriller(sim, net, pid, members=pids, drill_time=drill_time)
        detector = HeartbeatDetector(member, period=10.0, timeout=HEARTBEAT_TIMEOUT)
        ViewManager(member, detector)
        members[pid] = member
    cell = members["cell"]

    sim.call_at(5.0, cell.multicast, {"kind": "request", "holes": list(range(holes))})
    if crash_driller_at is not None:
        FailureInjector(sim, net).crash_at(crash_driller_at, "driller0")
    sim.run(until=_settled(drill_time, holes))

    survivors = [m for m in members.values() if m.alive]
    completed: Set[int] = set()
    drilled_counts: Dict[int, int] = {}
    for member in members.values():
        for hole in member.drilled_by_me:
            drilled_counts[hole] = drilled_counts.get(hole, 0) + 1
    for member in survivors:
        completed |= member.done
    checklist: Set[int] = set()
    for member in survivors:
        checklist |= member.checklist
    double = sum(1 for c in drilled_counts.values() if c > 1)
    app_messages = sum(m.multicasts_sent for m in members.values()) * (len(pids) - 1)
    last_done = max(
        (m.delivered[-1].delivered_at for m in survivors if m.delivered), default=0.0
    )
    return DrillingResult(
        design="catocs",
        drillers=drillers,
        holes=holes,
        completed=completed,
        checklist=checklist,
        double_drilled=double,
        app_messages=app_messages,
        completion_time=last_done,
    )


# ---------------------------------------------------------------------------
# Central-controller (state) design
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    hole: int


@dataclass
class DoneReport:
    hole: int
    driller: str


@dataclass
class BackupUpdate:
    state: Dict[str, Any]


class StateDriller(Process):
    """A dumb driller: drills what it is told, reports back."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 controller: str, drill_time: float) -> None:
        super().__init__(sim, network, pid)
        self.controller = controller
        self.drill_time = drill_time
        self.drilled: List[int] = []

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Assign):
            self.set_timer(self.drill_time, self._finish, payload.hole)

    def _finish(self, hole: int) -> None:
        self.drilled.append(hole)
        self.send(self.controller, DoneReport(hole=hole, driller=self.pid))


class CellController(Process):
    """Central scheduler with a hot backup of its assignment state."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 drillers: Sequence[str], backup: str, drill_time: float) -> None:
        super().__init__(sim, network, pid)
        self.drillers = list(drillers)
        self.backup = backup
        self.drill_time = drill_time
        self.pending: List[int] = []
        self.assigned: Dict[str, int] = {}
        self.done: Set[int] = set()
        self.checklist: Set[int] = set()
        self.app_messages = 0
        self.finished_at = 0.0

    def start_job(self, holes: Sequence[int]) -> None:
        self.pending = list(holes)
        for driller in self.drillers:
            self._assign_next(driller)
        self._mirror()

    def _assign_next(self, driller: str) -> None:
        if driller in self.assigned or not self.pending:
            return
        hole = self.pending.pop(0)
        self.assigned[driller] = hole
        self.send(driller, Assign(hole=hole))
        self.app_messages += 1
        # Timeout: if the driller dies mid-hole we check the hole + reassign.
        self.set_timer(self.drill_time * 3 + 30.0, self._check_driller, driller, hole)

    def _check_driller(self, driller: str, hole: int) -> None:
        if self.assigned.get(driller) != hole or hole in self.done:
            return
        # Driller presumed dead mid-hole: never re-drill; check it instead.
        self.checklist.add(hole)
        del self.assigned[driller]
        self.drillers.remove(driller)
        self._mirror()
        # Keep remaining drillers saturated.
        for d in self.drillers:
            self._assign_next(d)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, DoneReport):
            self.done.add(payload.hole)
            if self.assigned.get(payload.driller) == payload.hole:
                del self.assigned[payload.driller]
            self.finished_at = self.sim.now
            self._mirror()
            self._assign_next(payload.driller)

    def _mirror(self) -> None:
        self.send(
            self.backup,
            BackupUpdate(state={"pending": list(self.pending),
                                "done": set(self.done),
                                "checklist": set(self.checklist)}),
        )
        self.app_messages += 1


class BackupController(Process):
    """Passive replica of the controller state (promoted on failure)."""

    def __init__(self, sim: Simulator, network: Network, pid: str) -> None:
        super().__init__(sim, network, pid)
        self.state: Dict[str, Any] = {}

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, BackupUpdate):
            # Deliberate last-writer-wins over an unordered channel: the
            # central-controller drilling scenario reproduces the paper's
            # Section 2 architecture as-published, and a reordered backup
            # snapshot (stale promotion state) is one of the anomalies the
            # experiment exists to exhibit.  A sequence guard here would
            # fix the case study instead of measuring it.
            self.state = payload.state  # repro: ignore[ORD002]


def run_drilling_central(
    seed: int = 0,
    drillers: int = 4,
    holes: int = 16,
    drill_time: float = 20.0,
    crash_driller_at: Optional[float] = None,
    latency: float = 3.0,
) -> DrillingResult:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=latency))
    driller_pids = [f"driller{i}" for i in range(drillers)]
    backup = BackupController(sim, net, "backup")
    controller = CellController(sim, net, "cell", driller_pids, "backup", drill_time)
    driller_procs = {
        pid: StateDriller(sim, net, pid, "cell", drill_time) for pid in driller_pids
    }
    sim.call_at(5.0, controller.start_job, list(range(holes)))
    if crash_driller_at is not None:
        FailureInjector(sim, net).crash_at(crash_driller_at, "driller0")
    sim.run(until=_settled(drill_time, holes))

    drilled_counts: Dict[int, int] = {}
    for proc in driller_procs.values():
        for hole in proc.drilled:
            drilled_counts[hole] = drilled_counts.get(hole, 0) + 1
    double = sum(1 for c in drilled_counts.values() if c > 1)
    return DrillingResult(
        design="central",
        drillers=drillers,
        holes=holes,
        completed=set(controller.done),
        checklist=set(controller.checklist),
        double_drilled=double,
        app_messages=controller.app_messages + len(controller.done),
        completion_time=controller.finished_at,
    )
