"""Real-socket transport: UDP datagrams over loopback, behind the seam.

:class:`UdpNetwork` implements the :class:`repro.runtime.transport.Transport`
surface with one bound UDP socket per attached process, so an unchanged
:class:`~repro.catocs.member.GroupMember` stack runs over actual datagrams:
every payload is serialized by :mod:`repro.runtime.codec`, crosses the OS
socket layer, and is decoded into a fresh object on the receiving side —
no Python references survive the trip, exactly like a real deployment.  A
causal stamp decodes into the clock domain its group has on this host's
clock, the one the receiving members' own clocks index; a stamp for a group
with no domain here is a decode error, so forged group names cannot add
domains to the clock.

The link model is applied *sender-side* before the socket (partition check,
seeded drop sample, latency/jitter as a wall-clock ``call_later`` before
``sendto``), so experiments keep their fault-injection knobs; the OS adds
its own (tiny, loopback) latency on top.  Remote peers in other OS
processes are added with :meth:`UdpNetwork.add_peer`; for those, partition
and crash bookkeeping naturally applies only to the local side.

Lifecycle: construct the network, build the members (``attach`` happens in
the ``Process`` constructor), then ``await net.start()`` to bind the
sockets.  Anything a stack timer sends before the bind completes is queued
and flushed on start.  Malformed or truncated datagrams are counted in
``decode_errors`` and dropped — a byte-flipping peer cannot crash the host —
and so are well-formed ones whose sender pid is neither attached here nor a
registered peer (``unknown_sender``): peers are static, so nothing the stack
did with such a message could be answered.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.ordering.dense import ClockDomain, known_domain
from repro.runtime import codec
from repro.runtime.asyncio_rt import AsyncioClock
from repro.sim.network import LinkModel, NetworkStats, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

Address = Tuple[str, int]


class _MemberProtocol(asyncio.DatagramProtocol):
    """Receive-side adapter: one per bound socket / local pid."""

    def __init__(self, net: "UdpNetwork", pid: str) -> None:
        self._net = net
        self._pid = pid

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._net._on_datagram(self._pid, data)

    def error_received(self, exc: Exception) -> None:
        self._net.socket_errors += 1


class UdpNetwork:
    """Transport backend over per-process loopback UDP sockets."""

    __slots__ = (
        "sim",
        "clock",
        "host",
        "default_link",
        "stats",
        "decode_errors",
        "unknown_sender",
        "oversize_dropped",
        "socket_errors",
        "_processes",
        "_links",
        "_partition_of",
        "_packet_ids",
        "_requested_ports",
        "_transports",
        "_addrs",
        "_started",
        "_pre_start",
    )

    def __init__(self, clock: AsyncioClock, default_link: Optional[LinkModel] = None,
                 host: str = "127.0.0.1") -> None:
        self.sim = clock  # processes reach the clock through .sim on attach
        self.clock = clock
        self.host = host
        self.default_link = default_link or LinkModel(latency=0.0)
        self.stats = NetworkStats()
        self.decode_errors = 0
        self.unknown_sender = 0
        self.oversize_dropped = 0
        self.socket_errors = 0
        self._processes: Dict[str, "Process"] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        self._partition_of: Dict[str, int] = {}
        self._packet_ids = 0
        self._requested_ports: Dict[str, int] = {}
        self._transports: Dict[str, asyncio.DatagramTransport] = {}
        self._addrs: Dict[str, Address] = {}
        self._started = False
        self._pre_start: List[Tuple[str, str, bytes]] = []
        self._register_metrics(clock.metrics)

    def _register_metrics(self, registry) -> None:
        registry.gauge_fn("udp.sent", lambda: self.stats.sent)
        registry.gauge_fn("udp.delivered", lambda: self.stats.delivered)
        registry.gauge_fn("udp.dropped", lambda: self.stats.dropped)
        registry.gauge_fn("udp.bytes_sent", lambda: self.stats.bytes_sent)
        registry.gauge_fn("udp.decode_errors", lambda: self.decode_errors)
        registry.gauge_fn("udp.unknown_sender", lambda: self.unknown_sender)
        registry.gauge_fn("udp.oversize_dropped", lambda: self.oversize_dropped)
        registry.gauge_fn("udp.socket_errors", lambda: self.socket_errors)

    # -- wiring -----------------------------------------------------------------------------

    def attach(self, process: "Process") -> None:
        if self._started:
            raise RuntimeError("attach processes before UdpNetwork.start()")
        if process.pid in self._processes:
            raise ValueError(f"duplicate process id: {process.pid}")
        self._processes[process.pid] = process

    def process(self, pid: str) -> "Process":
        return self._processes[pid]

    @property
    def pids(self) -> Tuple[str, ...]:
        return tuple(self._processes)

    def reserve_port(self, pid: str, port: int) -> None:
        """Bind ``pid``'s socket to a fixed port at start (default: ephemeral)."""
        self._requested_ports[pid] = port

    def add_peer(self, pid: str, host: str, port: int) -> None:
        """Register a remote group member living in another OS process."""
        self._addrs[pid] = (host, port)

    def address(self, pid: str) -> Address:
        """The UDP address a pid receives on (local pids: after start())."""
        return self._addrs[pid]

    async def start(self) -> None:
        """Bind one datagram socket per attached process, flush queued sends."""
        loop = asyncio.get_running_loop()
        for pid in self._processes:
            if pid in self._transports:
                continue
            transport, _ = await loop.create_datagram_endpoint(
                lambda pid=pid: _MemberProtocol(self, pid),
                local_addr=(self.host, self._requested_ports.get(pid, 0)),
            )
            self._transports[pid] = transport
            self._addrs[pid] = transport.get_extra_info("sockname")[:2]
        self._started = True
        pending, self._pre_start = self._pre_start, []
        for src, dst, data in pending:
            self._transmit(src, dst, data)

    def close(self) -> None:
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        self._started = False

    # -- topology (same surface as repro.sim.Network) ---------------------------------------

    def set_link(self, src: str, dst: str, model: LinkModel) -> None:
        self._links[(src, dst)] = model

    def set_link_symmetric(self, a: str, b: str, model: LinkModel) -> None:
        self.set_link(a, b, model)
        self.set_link(b, a, model)

    def link(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    def partition(self, *groups: Set[str]) -> None:
        self._partition_of = {}
        for index, group in enumerate(groups):
            for pid in group:
                self._partition_of[pid] = index

    def heal(self) -> None:
        self._partition_of = {}

    def note_crash(self, pid: str) -> None:
        """Link-state hook for process crashes (no FIFO clocks here)."""

    def connected(self, a: str, b: str) -> bool:
        return self._partition_of.get(a, 0) == self._partition_of.get(b, 0)

    # -- data path --------------------------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any,
             data: Optional[bytes] = None) -> Optional[Packet]:
        """Encode and transmit one datagram.  ``data`` is for
        :meth:`multicast`, which has already encoded the payload."""
        if dst not in self._processes and dst not in self._addrs:
            raise KeyError(f"unknown destination: {dst}")
        if data is None:
            data = codec.encode_datagram(src, payload)
        size = len(data)
        self._packet_ids += 1
        packet = Packet(packet_id=self._packet_ids, src=src, dst=dst,
                        payload=payload, send_time=self.clock.now, size=size)
        self.stats.sent += 1
        self.stats.bytes_sent += size
        if size > codec.MAX_DATAGRAM:
            self.oversize_dropped += 1
            self.stats.dropped += 1
            return None
        if not self.connected(src, dst):
            self.stats.partitioned += 1
            return None
        model = self.link(src, dst)
        if model.sample_drop(self.clock.rng):
            self.stats.dropped += 1
            return None
        latency = model.sample_latency(self.clock.rng)
        if latency > 0:
            self.clock.call_later(latency, self._transmit, src, dst, data)
        else:
            self._transmit(src, dst, data)
        return packet

    def multicast(self, src: str, dsts: Iterable[str], payload: Any) -> None:
        """One :meth:`send` per destination, in order, of a datagram that
        is encoded once: the bytes depend on ``src`` and ``payload`` only."""
        data = codec.encode_datagram(src, payload)
        for dst in dsts:
            self.send(src, dst, payload, data)

    def _transmit(self, src: str, dst: str, data: bytes) -> None:
        if not self._started:
            self._pre_start.append((src, dst, data))
            return
        transport = self._transports.get(src)
        addr = self._addrs.get(dst)
        if transport is None or transport.is_closing() or addr is None:
            self.stats.dropped += 1
            return
        transport.sendto(data, addr)

    def _domain(self, group: str) -> ClockDomain:
        """The clock domain ``group``'s members stamp in on this host, so a
        received stamp decodes into the receivers' own domain.  A group
        without one here raises ``CodecError``: the datagram is counted in
        ``decode_errors`` and adds nothing to the clock."""
        domain = known_domain(self.clock, group)
        if domain is None:
            raise codec.CodecError(f"no clock domain for group {group!r} on this host")
        return domain

    def _on_datagram(self, dst: str, data: bytes) -> None:
        try:
            src, payload = codec.decode_datagram(data, self._domain)
        except codec.CodecError:
            self.decode_errors += 1
            return
        if src not in self._addrs and src not in self._processes:
            self.unknown_sender += 1
            return
        process = self._processes.get(dst)
        if process is None or not process.alive:
            self.stats.to_crashed += 1
            return
        if not self.connected(src, dst):
            # A partition raised after the datagram hit the socket buffer.
            self.stats.partitioned += 1
            return
        self._packet_ids += 1
        packet = Packet(packet_id=self._packet_ids, src=src, dst=dst,
                        payload=payload, send_time=self.clock.now, size=len(data))
        self.stats.delivered += 1
        self.stats.bytes_delivered += len(data)
        process._receive_packet(packet)
