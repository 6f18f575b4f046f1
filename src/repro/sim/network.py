"""Point-to-point message network with latency, jitter, loss, and partitions.

The network is the *only* channel the CATOCS substrate can see.  Hidden
channels — the shared database of Figure 2, the physical fire of Figure 3 —
are modelled as ordinary processes or out-of-band state, which is exactly the
paper's point: the communication layer has no visibility into them.

Per-link properties are configurable so experiments can create asymmetric
latencies (the ingredient of most reordering anomalies) and inject loss.
Links are non-FIFO by default (each packet samples latency independently);
protocols that need FIFO channels (e.g. Chandy-Lamport) layer sequence
numbers on top, as they would in practice, or request ``fifo=True`` links.

``fifo=True`` models a connection-oriented channel, and severing it behaves
like a connection reset: when a partition splits the endpoints or either
endpoint crashes, packets already in flight on the link are lost, and the
link's FIFO arrival clock is forgotten once the endpoints can talk again.
Without the reset, post-heal traffic would be sequenced behind the
scheduled arrivals of packets that no longer exist — phantom ordering
delays referenced to pre-partition ghosts.

This class is also the reference implementation of the transport seam
(:class:`repro.runtime.transport.Transport`, a structural protocol — this
module never imports the runtime): ``UdpNetwork`` exposes the same
attach/send/multicast/link-model/partition surface, so the protocol stacks run
unchanged over real UDP loopback sockets on a wall-clock event loop (see
docs/RUNTIME.md).  ``drop_hooks`` is this class's own: only the simulator
sees every drop as a packet it can hand to a callback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.process import Process


def estimate_size(payload: Any) -> int:
    """Rough wire size of a payload in bytes.

    Used for the Section 5 buffering measurements.  Objects may define
    ``size_bytes()`` for an exact figure; otherwise we recursively estimate
    common containers and assume 8 bytes per scalar, which is adequate for
    comparing growth *trends* across group sizes.
    """
    if hasattr(payload, "size_bytes"):
        return int(payload.size_bytes())
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="replace"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 8 + sum(estimate_size(k) + estimate_size(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(v) for v in payload)
    if hasattr(payload, "__dict__"):
        return 8 + estimate_size(vars(payload))
    return 8


@dataclass(slots=True)
class LinkModel:
    """Latency/loss model for one directed link.

    ``latency`` is the base one-way delay; each packet adds uniform jitter in
    ``[0, jitter]`` and is dropped with probability ``drop_prob``.
    """

    latency: float = 1.0
    jitter: float = 0.0
    drop_prob: float = 0.0
    fifo: bool = False

    def sample_latency(self, rng) -> float:
        if self.jitter <= 0:
            return self.latency
        return self.latency + rng.uniform(0.0, self.jitter)

    def sample_drop(self, rng) -> bool:
        return self.drop_prob > 0 and rng.random() < self.drop_prob


@dataclass(slots=True)
class Packet:
    """A message in flight.

    ``link_epoch`` is stamped on packets sent over FIFO links: it records
    the link's connection epoch at send time, so a reset (partition or
    endpoint crash) while the packet is in flight invalidates it.  None for
    non-FIFO links, which have no connection state to reset.

    ``slots=True``: one envelope is allocated per network send, making this
    the second-hottest allocation in the simulator after the kernel's
    events (which are ``__slots__`` flyweights for the same reason).
    """

    packet_id: int
    src: str
    dst: str
    payload: Any
    send_time: float
    size: int
    link_epoch: Optional[int] = None


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters, used by every cost experiment."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    partitioned: int = 0
    to_crashed: int = 0
    reset: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "partitioned": self.partitioned,
            "to_crashed": self.to_crashed,
            "reset": self.reset,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }


class Network:  # repro: ignore[PERF001] -- tests monkeypatch send() per instance
    """Connects named processes and transports payloads between them.

    Processes register via :meth:`attach`; :meth:`send` schedules delivery
    through the destination's ``_receive_packet`` after the sampled latency,
    unless the packet is dropped, the destination is crashed at delivery
    time, or a partition separates the endpoints.

    Deliberately unslotted: the loss/sniffing tests replace ``send`` on
    individual instances (``net.send = wrapper``), which needs a per-instance
    ``__dict__``.
    """

    def __init__(self, sim: Simulator, default_link: Optional[LinkModel] = None) -> None:
        self.sim = sim
        self.default_link = default_link or LinkModel()
        self.stats = NetworkStats()
        self._processes: Dict[str, "Process"] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        self._packet_ids = itertools.count()
        self._partition_of: Dict[str, int] = {}
        self._fifo_clock: Dict[Tuple[str, str], float] = {}
        self._link_epoch: Dict[Tuple[str, str], int] = {}
        self.drop_hooks: list[Callable[[Packet], None]] = []
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.sim.metrics
        stats = self.stats
        m.gauge_fn("net.sent", lambda: stats.sent)
        m.gauge_fn("net.delivered", lambda: stats.delivered)
        m.gauge_fn("net.bytes_sent", lambda: stats.bytes_sent)
        m.gauge_fn("net.bytes_delivered", lambda: stats.bytes_delivered)
        # One drop counter per cause; the cause split is what the partition
        # experiments consume (loss vs partition vs crashed destination).
        self._m_drop_loss = m.counter("net.drops", cause="loss")
        self._m_drop_partition = m.counter("net.drops", cause="partition_at_send")
        self._m_drop_in_flight = m.counter("net.drops", cause="partition_in_flight")
        self._m_drop_crashed = m.counter("net.drops", cause="to_crashed")
        self._m_drop_reset = m.counter("net.drops", cause="link_reset")
        #: per-link latency histograms, memoized by (src, dst)
        self._latency_hists: Dict[Tuple[str, str], Any] = {}

    # -- topology -----------------------------------------------------------

    def attach(self, process: "Process") -> None:
        if process.pid in self._processes:
            raise ValueError(f"duplicate process id: {process.pid}")
        self._processes[process.pid] = process

    def process(self, pid: str) -> "Process":
        return self._processes[pid]

    @property
    def pids(self) -> Tuple[str, ...]:
        return tuple(self._processes)

    def set_link(self, src: str, dst: str, model: LinkModel) -> None:
        """Override the link model for the directed pair (src, dst)."""
        self._links[(src, dst)] = model

    def set_link_symmetric(self, a: str, b: str, model: LinkModel) -> None:
        self.set_link(a, b, model)
        self.set_link(b, a, model)

    def link(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    # -- partitions ---------------------------------------------------------

    def partition(self, *groups: Set[str]) -> None:
        """Split processes into disjoint partitions.

        Processes not named in any group stay in partition 0 along with the
        first group.  Packets only flow within a partition.  FIFO links that
        the new partition severs suffer a connection reset: their in-flight
        packets are lost (see :class:`Packet` ``link_epoch``).
        """
        new_map: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                new_map[pid] = index
        self._apply_partition(new_map)

    def heal(self) -> None:
        """Remove all partitions.

        FIFO clocks for links that were severed are forgotten: their last
        recorded arrival refers to pre-partition traffic that died in the
        reset, and holding post-heal packets behind those ghosts would
        impose phantom ordering delays.
        """
        self._apply_partition({})

    def _apply_partition(self, new_map: Dict[str, int]) -> None:
        old_map = self._partition_of

        def joined(mapping: Dict[str, int], a: str, b: str) -> bool:
            return mapping.get(a, 0) == mapping.get(b, 0)

        for key in set(self._fifo_clock) | set(self._link_epoch):
            was = joined(old_map, *key)
            now = joined(new_map, *key)
            if was and not now:
                # Link severed: in-flight FIFO packets die with the
                # connection.  The clock stays until reconnection so the
                # severed/reconnected transitions stay symmetric.
                self._link_epoch[key] = self._link_epoch.get(key, 0) + 1
            elif now and not was:
                # Link restored: the recorded arrival is a pre-partition
                # ghost; a fresh connection starts with a fresh clock.
                self._fifo_clock.pop(key, None)
        self._partition_of = new_map

    def note_crash(self, pid: str) -> None:
        """Reset per-link FIFO state involving a crashed process.

        A crash tears down the process's connections: anything in flight to
        or from it is lost, and a recovered process's links restart fresh
        rather than being sequenced after dropped pre-crash packets.
        """
        for key in set(self._fifo_clock) | set(self._link_epoch):
            if pid in key:
                self._fifo_clock.pop(key, None)
                self._link_epoch[key] = self._link_epoch.get(key, 0) + 1

    def connected(self, a: str, b: str) -> bool:
        return self._partition_of.get(a, 0) == self._partition_of.get(b, 0)

    # -- transport ----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any,
             size: Optional[int] = None) -> Optional[Packet]:
        """Transmit ``payload`` from ``src`` to ``dst``.

        Returns the in-flight :class:`Packet`, or None if it was dropped (by
        loss, partition, or a crashed destination at send time — the common
        failure model for datagram networks).  ``size`` is for
        :meth:`multicast`, which has already sized the payload.
        """
        if dst not in self._processes:
            raise KeyError(f"unknown destination: {dst}")
        if size is None:
            size = estimate_size(payload)
        stats = self.stats
        packet = Packet(
            packet_id=next(self._packet_ids),
            src=src,
            dst=dst,
            payload=payload,
            send_time=self.sim.now,
            size=size,
        )
        stats.sent += 1
        stats.bytes_sent += size

        # The directed-link key is consulted up to three times below (link
        # model, FIFO clock, latency histogram); build the tuple once.
        key = (src, dst)
        if not self.connected(src, dst):
            stats.partitioned += 1
            self._m_drop_partition.inc()
            self._on_drop(packet)
            return None
        model = self._links.get(key, self.default_link)
        if model.sample_drop(self.sim.rng):
            stats.dropped += 1
            self._m_drop_loss.inc()
            self._on_drop(packet)
            return None

        arrival = self.sim.now + model.sample_latency(self.sim.rng)
        if model.fifo:
            arrival = max(arrival, self._fifo_clock.get(key, 0.0))
            self._fifo_clock[key] = arrival
            packet.link_epoch = self._link_epoch.get(key, 0)
        hist = self._latency_hists.get(key)
        if hist is None:
            hist = self.sim.metrics.histogram("net.link_latency", src=src, dst=dst)
            self._latency_hists[key] = hist
        hist.observe(arrival - self.sim.now)
        self.sim.call_at(arrival, self._deliver, packet)
        return packet

    def multicast(self, src: str, dsts: Iterable[str], payload: Any) -> None:
        """Transmit one ``payload`` from ``src`` to each of ``dsts``, in order.

        Same as one :meth:`send` per destination — every destination still
        goes through ``send``, with its own drop and latency samples — but
        the payload is sized once for the whole fan-out, not once per copy.
        """
        size = estimate_size(payload)
        send = self.send
        for dst in dsts:
            send(src, dst, payload, size)

    def _deliver(self, packet: Packet) -> None:
        if (packet.link_epoch is not None
                and packet.link_epoch
                != self._link_epoch.get((packet.src, packet.dst), 0)):
            # The FIFO link was reset (partition or endpoint crash) while
            # the packet was in flight; it died with the connection.
            self.stats.reset += 1
            self._m_drop_reset.inc()
            self._on_drop(packet)
            return
        process = self._processes.get(packet.dst)
        if process is None or not process.alive:
            self.stats.to_crashed += 1
            self._m_drop_crashed.inc()
            self._on_drop(packet)
            return
        if not self.connected(packet.src, packet.dst):
            # Partition formed while the packet was in flight.
            self.stats.partitioned += 1
            self._m_drop_in_flight.inc()
            self._on_drop(packet)
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size
        process._receive_packet(packet)

    def _on_drop(self, packet: Packet) -> None:
        for hook in self.drop_hooks:
            hook(packet)
