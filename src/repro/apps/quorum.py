"""Quorum locking with k-of-n deadlock detection (Section 4.2, end-to-end).

A client that wants to update replicated state must lock any k of its n
replica lock servers (a majority quorum).  The natural greedy protocol —
request everywhere, keep what you get, wait for the rest — deadlocks when
two clients each capture partial quorums.  Detection is the Section 4.2
recipe: each lock server periodically reports its holder and wait queue
(plain sequence numbers), a monitor runs the k-of-n graph reduction of
:mod:`repro.detect.kofn`, and a victim releases everything and retries
after backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.detect.kofn import KofNMonitor, KofNReport
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass
class LockRequest:
    client: str
    attempt: int


@dataclass
class LockGrant:
    server: str
    attempt: int


@dataclass
class LockRelease:
    client: str


class ReplicaLockServer(Process):
    """One replica's lock: single holder, FIFO waiters."""

    def __init__(self, sim: Simulator, network: Network, pid: str) -> None:
        super().__init__(sim, network, pid)
        self.holder: Optional[str] = None
        self.queue: List[Tuple[str, int]] = []

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, LockRequest):
            if self.holder is None:
                self.holder = payload.client
                self.send(payload.client, LockGrant(server=self.pid,
                                                    attempt=payload.attempt))
            else:
                self.queue.append((payload.client, payload.attempt))
        elif isinstance(payload, LockRelease):
            if self.holder == payload.client:
                self.holder = None
                if self.queue:
                    client, attempt = self.queue.pop(0)
                    self.holder = client
                    self.send(client, LockGrant(server=self.pid, attempt=attempt))
            else:
                self.queue = [(c, a) for c, a in self.queue if c != payload.client]

    def local_facts(self) -> Tuple[Dict[str, str], List[Tuple[str, Tuple[str, ...], int]]]:
        """(holders, waits) contribution for the k-of-n reports.

        Wait entries are emitted by the clients' reporters (they know their
        quorum spec); the server only knows its holder and queue.
        """
        holders = {self.pid: self.holder} if self.holder else {}
        return holders, []


@dataclass
class QuorumOutcome:
    client: str
    attempt: int
    status: str  # "acquired" | "aborted"
    at: float


class QuorumClient(Process):
    """Greedy quorum acquirer: ask all n, hold grants, wait for k."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 replicas: Sequence[str], k: int,
                 hold_time: float = 25.0, backoff: float = 60.0) -> None:
        super().__init__(sim, network, pid)
        self.replicas = list(replicas)
        self.k = k
        self.hold_time = hold_time
        self.backoff = backoff
        self.granted: Set[str] = set()
        self.wanting = False
        self.attempt = 0
        self.outcomes: List[QuorumOutcome] = []
        self.acquisitions = 0

    def acquire_quorum(self) -> None:
        self.attempt += 1
        self.wanting = True
        self.granted = set()
        for replica in self.replicas:
            self.send(replica, LockRequest(client=self.pid, attempt=self.attempt))

    def abort_attempt(self) -> None:
        """Deadlock victim: release everything, retry after backoff."""
        if not self.wanting:
            return
        self.wanting = False
        self.outcomes.append(QuorumOutcome(self.pid, self.attempt, "aborted",
                                           self.sim.now))
        for replica in self.replicas:
            self.send(replica, LockRelease(client=self.pid))
        self.granted = set()
        self.set_timer(self.backoff, self.acquire_quorum)

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, LockGrant):
            if not self.wanting or payload.attempt != self.attempt:
                # Stale grant from an aborted attempt: give it straight back.
                # The Grant->Release->Grant exchange is bounded by the number
                # of outstanding acquisition attempts (each stale grant is
                # released exactly once and a release only re-grants while a
                # competing client still waits), so the tick drains.
                self.send(payload.server, LockRelease(client=self.pid))
                return
            self.granted.add(payload.server)
            if len(self.granted) >= self.k:
                self.wanting = False
                self.acquisitions += 1
                self.outcomes.append(QuorumOutcome(self.pid, self.attempt,
                                                   "acquired", self.sim.now))
                self.set_timer(self.hold_time, self._finish)

    def _finish(self) -> None:
        for replica in self.replicas:
            self.send(replica, LockRelease(client=self.pid))
        self.granted = set()

    def wait_fact(self) -> Optional[Tuple[str, Tuple[str, ...], int]]:
        """This client's outstanding k-of-n demand, if any."""
        if not self.wanting:
            return None
        return (self.pid, tuple(self.replicas), self.k)


class QuorumDeadlockReporter(Process):
    """Gathers server holders + client demands, feeds the k-of-n monitor."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 servers: Sequence[ReplicaLockServer],
                 clients: Sequence[QuorumClient],
                 on_deadlock: Optional[Callable[[Set[str]], None]] = None,
                 period: float = 30.0) -> None:
        super().__init__(sim, network, pid)
        self.servers = list(servers)
        self.clients = list(clients)
        self.monitor = KofNMonitor(on_deadlock=on_deadlock)
        self.period = period
        self._seq = 0
        self.reports = 0

    def on_start(self) -> None:
        self.set_timer(self.period, self._tick)

    def _tick(self) -> None:
        self._seq += 1
        holders: Dict[str, str] = {}
        for server in self.servers:
            server_holders, _ = server.local_facts()
            holders.update(server_holders)
        waits = [fact for client in self.clients
                 if (fact := client.wait_fact()) is not None]
        self.reports += 1
        self.monitor.offer(KofNReport(reporter=self.pid, seq=self._seq,
                                      holders=holders, waits=waits))
        self.set_timer(self.period, self._tick)


@dataclass
class QuorumRunResult:
    clients: int
    replicas: int
    k: int
    deadlocks_detected: int
    acquisitions: int
    aborted_attempts: int
    all_clients_eventually_acquired: bool


def run_quorum(seed: int = 0, clients: int = 2, replicas: int = 4,
               k: int = 3, horizon: float = 4000.0) -> QuorumRunResult:
    """Two (or more) greedy clients race for overlapping quorums."""
    sim = Simulator(seed=seed)
    from repro.sim.network import LinkModel

    net = Network(sim, LinkModel(latency=4.0, jitter=3.0))
    servers = [ReplicaLockServer(sim, net, f"rep{i}") for i in range(replicas)]
    client_procs = [
        QuorumClient(sim, net, f"q{i}", [s.pid for s in servers], k)
        for i in range(clients)
    ]
    by_pid = {c.pid: c for c in client_procs}
    detected = []

    def resolve(stuck: Set[str]) -> None:
        detected.append(set(stuck))
        victim = sorted(stuck)[-1]
        if victim in by_pid:
            by_pid[victim].abort_attempt()

    reporter = QuorumDeadlockReporter(sim, net, "qmon", servers, client_procs,
                                      on_deadlock=resolve, period=30.0)
    for index, client in enumerate(client_procs):
        sim.call_at(1.0 + index * 0.5, client.acquire_quorum)
    sim.run(until=horizon)

    acquisitions = sum(c.acquisitions for c in client_procs)
    aborted = sum(1 for c in client_procs for o in c.outcomes
                  if o.status == "aborted")
    everyone = all(c.acquisitions >= 1 for c in client_procs)
    return QuorumRunResult(
        clients=clients,
        replicas=replicas,
        k=k,
        deadlocks_detected=len(detected),
        acquisitions=acquisitions,
        aborted_attempts=aborted,
        all_clients_eventually_acquired=everyone,
    )
