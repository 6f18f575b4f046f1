"""Termination detection as a locally-stable predicate (Section 4.2).

Termination is on the paper's list of problems in the Marzullo-Sabel
"locally stable" subclass: detectable with simple counting reports, no
consistent cut and no CATOCS.  Each process periodically reports
``(messages sent, messages received, active?)`` with a plain per-sender
sequence number.  The computation has terminated when every process is
passive and no message is in flight; the monitor declares it when **two
consecutive complete report rounds** show all-passive with equal global
send/receive counts and no counter moved between the rounds — the classic
double-scan that rules out in-flight messages without any snapshot.

A diffusing-computation workload (:class:`DiffusingWorker`) exercises it:
work messages spawn more work with decaying probability, then everything
goes quiet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass
class ActivityReport:
    reporter: str
    seq: int
    sent: int
    received: int
    active: bool


@dataclass
class WorkMessage:
    generation: int


class DiffusingWorker(Process):
    """A process in a diffusing computation.

    Receiving work makes it active for ``work_time``; while finishing, it
    spawns ``fanout`` new work messages with probability ``spawn_prob``
    (decaying by generation), then goes passive.
    """

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 peers: Sequence[str], work_time: float = 8.0,
                 spawn_prob: float = 0.55, fanout: int = 2,
                 max_generation: int = 8) -> None:
        super().__init__(sim, network, pid)
        self.peers = [p for p in peers if p != pid]
        self.work_time = work_time
        self.spawn_prob = spawn_prob
        self.fanout = fanout
        self.max_generation = max_generation
        self.active_jobs = 0
        self.sent_count = 0
        self.received_count = 0

    @property
    def active(self) -> bool:
        return self.active_jobs > 0

    def start_work(self, generation: int = 0) -> None:
        """Seed the computation at this process."""
        self.active_jobs += 1
        self.set_timer(self.work_time, self._finish_job, generation)

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, WorkMessage):
            self.received_count += 1
            self.active_jobs += 1
            self.set_timer(self.work_time, self._finish_job, payload.generation)

    def _finish_job(self, generation: int) -> None:
        if generation < self.max_generation:
            for _ in range(self.fanout):
                if self.sim.rng.random() < self.spawn_prob:
                    target = self.peers[self.sim.rng.randrange(len(self.peers))]
                    self.sent_count += 1
                    self.send(target, WorkMessage(generation=generation + 1))
        self.active_jobs -= 1


class ActivityReporter(Process):
    """Periodically reports a worker's counters to the monitors."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 worker: DiffusingWorker, monitors: Sequence[str],
                 period: float = 25.0) -> None:
        super().__init__(sim, network, pid)
        self.worker = worker
        self.monitors = list(monitors)
        self.period = period
        self._seq = 0
        self.reports_sent = 0

    def on_start(self) -> None:
        self.set_timer(self.period, self._tick)

    def _tick(self) -> None:
        self._seq += 1
        # Deliberate hidden channel: the reporter samples the co-located
        # worker's counters out of band, exactly the ghost communication the
        # paper's termination-detection study needs CATOCS to miss.  Routing
        # these reads through messages would destroy the experiment.
        report = ActivityReport(
            reporter=self.worker.pid,
            seq=self._seq,
            sent=self.worker.sent_count,
            received=self.worker.received_count,
            active=self.worker.active,
        )
        for monitor in self.monitors:
            # The report *is* the out-of-band observation (see the
            # justification above): the send is gated on state the message
            # system never carried, which is exactly the ghost communication
            # this detector feeds to the termination experiment.
            self.send(monitor, report)  # repro: ignore[ORD003]
            self.reports_sent += 1
        self.set_timer(self.period, self._tick)


class TerminationMonitor(Process):
    """Declares termination after two identical all-passive complete rounds."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 workers: Sequence[str],
                 on_terminated: Optional[Callable[[float], None]] = None) -> None:
        super().__init__(sim, network, pid)
        self.workers = list(workers)
        self.on_terminated = on_terminated
        self._latest: Dict[str, ActivityReport] = {}
        self._previous_round: Optional[Tuple] = None
        self.declared_at: Optional[float] = None
        self.reports_received = 0

    def on_message(self, src: str, payload) -> None:
        if not isinstance(payload, ActivityReport):
            return
        current = self._latest.get(payload.reporter)
        if current is not None and payload.seq <= current.seq:
            return  # stale / reordered
        self.reports_received += 1
        self._latest[payload.reporter] = payload
        self._evaluate()

    def _evaluate(self) -> None:
        if self.declared_at is not None:
            return
        if set(self._latest) < set(self.workers):
            return
        reports = [self._latest[w] for w in self.workers]
        all_passive = all(not r.active for r in reports)
        balanced = (sum(r.sent for r in reports) == sum(r.received for r in reports))
        counters = tuple((r.reporter, r.sent, r.received) for r in reports)
        seqs = tuple(r.seq for r in reports)
        if not (all_passive and balanced):
            self._previous_round = None
            return
        if self._previous_round is not None:
            previous_counters, previous_seqs = self._previous_round
            # Second scan: every report strictly fresher, counters frozen.
            if previous_counters == counters and all(
                new > old for new, old in zip(seqs, previous_seqs)
            ):
                self.declared_at = self.sim.now
                if self.on_terminated is not None:
                    self.on_terminated(self.sim.now)
                return
            # Same round still filling in, or counters moved: re-anchor only
            # when all seqs advanced past the stored round.
            if all(new > old for new, old in zip(seqs, previous_seqs)):
                self._previous_round = (counters, seqs)
            return
        self._previous_round = (counters, seqs)
