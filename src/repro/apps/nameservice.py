"""Section 4.5: replication in the large — a Lampson-style global name service.

"Replication in the large, such as with large-scale naming services, can
exploit application state-specific techniques to ensure consistency of
updates and also exploit application-specific tolerance of inconsistencies
... Lampson's design suggests that duplicate name binding can be resolved by
undoing one of the name bindings.  In the scale of multi-national directory
service ... tolerating the occasional 'undo' of this nature seems far
preferable in practice than having directory operations significantly
delayed by message losses or reorderings."

The implementation: N directory servers, each accepting bindings locally
(full availability — even under partition), propagating by periodic
anti-entropy gossip.  A *conflict* (the same name bound concurrently at two
servers) is resolved deterministically when the copies meet: the binding
with the lower (timestamp, origin) wins, the other is undone and the undo
recorded — the application-level tolerance the paper describes.  Comm-state
per server is a constant-size gossip digest, versus CATOCS state that grows
with global in-flight traffic (E19 quantifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.kernel import Simulator
from repro.sim.network import LinkModel, Network, estimate_size
from repro.sim.process import Process


@dataclass(frozen=True)
class Binding:
    """One name binding, totally ordered by (timestamp, origin, value)."""

    name: str
    value: str
    timestamp: float
    origin: str

    def beats(self, other: "Binding") -> bool:
        return (self.timestamp, self.origin, self.value) < (
            other.timestamp, other.origin, other.value
        )


#: What a digest's record costs the byte model besides its values: the 16
#: every record has and the names of the two fields it carries.
_DIGEST_RECORD_BYTES = 16 + len("sender") + len("bindings")


@dataclass
class GossipDigest:
    """Anti-entropy payload: the sender's full binding table (small scale) —
    a constant number of messages per round regardless of write rate."""

    sender: str
    bindings: Dict[str, Binding]
    #: the byte model's size of ``bindings``, kept by the sending server as
    #: its table changes, so a round does not walk every binding
    bindings_bytes: int

    def size_bytes(self) -> int:
        """What the byte model's walk gives ``sender`` and ``bindings`` alone."""
        return _DIGEST_RECORD_BYTES + estimate_size(self.sender) + self.bindings_bytes


@dataclass
class UndoRecord:
    name: str
    undone: Binding
    kept: Binding
    at: float


class DirectoryServer(Process):
    """One replica of the name service."""

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 peers: Sequence[str], gossip_period: float = 40.0,
                 fanout: int = 2) -> None:
        super().__init__(sim, network, pid)
        self.peers = [p for p in peers if p != pid]
        self.gossip_period = gossip_period
        self.fanout = min(fanout, len(self.peers)) if self.peers else 0
        self.bindings: Dict[str, Binding] = {}
        #: ``estimate_size(self.bindings)``, kept up to date by ``_install``
        self._bindings_bytes = estimate_size(self.bindings)
        self.undos: List[UndoRecord] = []
        self.gossip_sent = 0
        self.writes_accepted = 0

    # -- client operations: always available locally --------------------------------

    def bind(self, name: str, value: str) -> Binding:
        """Create a binding at this server (accepted unconditionally)."""
        binding = Binding(name=name, value=value, timestamp=self.sim.now,
                          origin=self.pid)
        self.writes_accepted += 1
        self._install(binding)
        return binding

    def lookup(self, name: str) -> Optional[str]:
        binding = self.bindings.get(name)
        return binding.value if binding else None

    # -- anti-entropy -----------------------------------------------------------------

    def on_start(self) -> None:
        if self.gossip_period > 0 and self.peers:
            self.set_timer(self.sim.rng.uniform(0, self.gossip_period), self._gossip)

    def _gossip(self) -> None:
        targets = self.sim.rng.sample(self.peers, self.fanout) if self.fanout else []
        # One digest, sized once for the whole fan-out.
        self.send_many(targets, self.digest())
        self.gossip_sent += len(targets)
        self.set_timer(self.gossip_period, self._gossip)

    def digest(self) -> GossipDigest:
        """A snapshot of this server's table, as one gossip round sends it."""
        return GossipDigest(self.pid, dict(self.bindings), self._bindings_bytes)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, GossipDigest):
            for binding in payload.bindings.values():
                self._install(binding)

    def _install(self, incoming: Binding) -> None:
        current = self.bindings.get(incoming.name)
        if current is None:
            self.bindings[incoming.name] = incoming
            self._bindings_bytes += estimate_size(incoming.name) + estimate_size(incoming)
            return
        # Every digest repeats the whole table: most bindings are the very
        # object already held.
        if current is incoming or current == incoming:
            return
        # Duplicate binding: deterministic resolution, record the undo.
        if incoming.beats(current):
            self.undos.append(UndoRecord(name=incoming.name, undone=current,
                                         kept=incoming, at=self.sim.now))
            self.bindings[incoming.name] = incoming
            self._bindings_bytes += estimate_size(incoming) - estimate_size(current)
        else:
            # We keep ours; still record that a duplicate existed if the
            # loser originated here (so the owner can be notified).
            if incoming.origin == self.pid or current.origin == self.pid:
                self.undos.append(UndoRecord(name=incoming.name, undone=incoming,
                                             kept=current, at=self.sim.now))

    # -- state accounting ---------------------------------------------------------------

    def comm_state_size(self) -> int:
        """Communication-layer state this design needs per server: none
        beyond the peer list (gossip is stateless request-free push)."""
        return len(self.peers)


@dataclass
class NameServiceResult:
    servers: int
    names_bound: int
    conflicting_names: int
    converged: bool
    undos_recorded: int
    distinct_survivors_per_name: int
    gossip_messages: int
    writes_during_partition: int
    comm_state_per_server: int
    modelled_catocs_state_per_server: int


def run_nameservice(
    seed: int = 0,
    servers: int = 8,
    names: int = 30,
    duplicate_fraction: float = 0.3,
    gossip_period: float = 40.0,
    partition_window: Optional[Tuple[float, float]] = None,
    horizon: float = 6000.0,
) -> NameServiceResult:
    """Bind names at random servers (a fraction concurrently at two servers),
    optionally under a partition, and measure convergence + undo behaviour."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=8.0, jitter=6.0))
    pids = [f"dir{i}" for i in range(servers)]
    procs = {pid: DirectoryServer(sim, net, pid, pids,
                                  gossip_period=gossip_period) for pid in pids}

    if partition_window is not None:
        start, end = partition_window
        half = servers // 2
        sim.call_at(start, net.partition, set(pids[:half]), set(pids[half:]))
        sim.call_at(end, net.heal)

    duplicates = 0
    writes_in_partition = 0
    for n in range(names):
        name = f"name{n}"
        at = sim.rng.uniform(10.0, 900.0)
        first = pids[sim.rng.randrange(servers)]
        sim.call_at(at, procs[first].bind, name, f"v-{first}-{n}")
        in_partition = (partition_window is not None
                        and partition_window[0] <= at <= partition_window[1])
        if in_partition:
            writes_in_partition += 1
        if sim.rng.random() < duplicate_fraction:
            duplicates += 1
            second = pids[sim.rng.randrange(servers)]
            while second == first:
                second = pids[sim.rng.randrange(servers)]
            # concurrent duplicate: bound before the first copy can gossip over
            sim.call_at(at + sim.rng.uniform(0.1, 5.0),
                        procs[second].bind, name, f"v-{second}-{n}")
            if in_partition:
                writes_in_partition += 1
    sim.run(until=horizon)

    # convergence: every server resolves every name to the same value
    survivors_per_name: Dict[str, Set[str]] = {}
    for proc in procs.values():
        for name, binding in proc.bindings.items():
            survivors_per_name.setdefault(name, set()).add(binding.value)
    converged = all(len(vals) == 1 for vals in survivors_per_name.values())
    undos = sum(len(p.undos) for p in procs.values())
    gossip = sum(p.gossip_sent for p in procs.values())

    # The CATOCS comparison (modelled): a single ordered group over all
    # servers buffers every update until stable; per-server state grows with
    # global traffic in flight (~ writes x propagation rounds), vs the
    # constant peer list here.
    total_writes = sum(p.writes_accepted for p in procs.values())
    modelled_catocs = total_writes * servers  # buffered copies system-wide / N

    return NameServiceResult(
        servers=servers,
        names_bound=names,
        conflicting_names=duplicates,
        converged=converged,
        undos_recorded=undos,
        distinct_survivors_per_name=max(
            (len(v) for v in survivors_per_name.values()), default=0),
        gossip_messages=gossip,
        writes_during_partition=writes_in_partition,
        comm_state_per_server=max(p.comm_state_size() for p in procs.values()),
        modelled_catocs_state_per_server=modelled_catocs,
    )
