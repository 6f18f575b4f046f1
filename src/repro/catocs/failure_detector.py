"""Heartbeat failure detection.

CATOCS implementations pair ordered delivery with failure notification; the
detector here is the standard timeout-based suspicion mechanism.  Suspicions
feed the view-change protocol (:mod:`repro.catocs.membership`) and the
transport's choice of retransmission target.

Like all timeout detectors it is *unreliable*: a slow link can produce a
false suspicion, which is one ingredient in the paper's observation that
"additional group-wide delay ... is often a worse form of failure than a
failure of an individual group member" (Section 4.6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

from repro.catocs.messages import Heartbeat

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember

SuspectCallback = Callable[[str], None]


class HeartbeatDetector:
    """Per-member heartbeat emitter + timeout-based suspicion."""

    def __init__(
        self,
        member: "GroupMember",
        period: float = 10.0,
        timeout: float = 35.0,
    ) -> None:
        self.member = member
        member.failure_detector = self
        self.period = period
        self.timeout = timeout
        self.last_heard: Dict[str, float] = {
            pid: member.sim.now for pid in member.view_members if pid != member.pid
        }
        self.on_suspect: List[SuspectCallback] = []
        self.heartbeats_sent = 0
        member.set_timer(self.period, self._tick)

    def observe(self, pid: str) -> None:
        """Record liveness evidence for ``pid``.

        Only heartbeats reach it (:meth:`handle_heartbeat`): other packets
        from ``pid`` are not counted as evidence.  Counting any packet is
        ROADMAP item 7."""
        self.last_heard[pid] = self.member.sim.now
        if not self.member.believes_alive(pid):
            self.member.unsuspect(pid)

    def handle_heartbeat(self, beat: Heartbeat) -> None:
        self.observe(beat.sender)

    def _tick(self) -> None:
        member = self.member
        beat = Heartbeat(group=member.group, sender=member.pid, view_id=member.view_id)
        self.heartbeats_sent += member.send_peers(beat)
        now = member.sim.now
        for pid, heard in self.last_heard.items():
            if pid not in member.view_members:
                continue
            if now - heard > self.timeout and member.believes_alive(pid):
                member.suspect(pid)
                for callback in self.on_suspect:
                    callback(pid)
        member.set_timer(self.period, self._tick)
