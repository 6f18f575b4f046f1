"""The transport seam: one structural protocol, two backends.

The paper's claim is that ordering semantics live at the endpoints, not in
the communication substrate.  Our code proves it by running the *same*
:class:`repro.catocs.stack.ProtocolStack` over two interchangeable
transports:

- :class:`repro.sim.network.Network` — the discrete-event simulator network
  (virtual time, bit-reproducible, zero-copy payload delivery);
- :class:`repro.runtime.udp.UdpNetwork` — real UDP datagrams over loopback
  sockets, with every payload run through the versioned binary wire codec
  (:mod:`repro.runtime.codec`).

:class:`Transport` is a :func:`typing.runtime_checkable` structural protocol
so the simulator network conforms without importing anything from
``repro.runtime`` — the sim tree stays pure (PUR001) and the dependency arrow
points runtime → sim, never back.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.sim.network import LinkModel, NetworkStats, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

#: The 15 attribute names every transport backend must expose.  Kept as
#: data so tests (and debugging sessions) can diff an implementation against
#: the seam without relying on ``isinstance`` semantics for non-callable
#: members.
TRANSPORT_SURFACE: Tuple[str, ...] = (
    # wiring
    "attach",
    "process",
    "pids",
    "sim",
    # link topology and faults
    "default_link",
    "set_link",
    "set_link_symmetric",
    "link",
    "partition",
    "heal",
    "connected",
    "note_crash",
    # data path (one destination / a fan-out) and accounting
    "send",
    "multicast",
    "stats",
)


@runtime_checkable
class Transport(Protocol):
    """Structural surface of a CATOCS transport backend.

    A process attaches once, then ``send(src, dst, payload)`` is the only
    way anything crosses the network — the substrate applies the per-link
    latency/jitter/loss model, honours partitions, and counts traffic in
    ``stats``.  Delivery happens by calling ``dst``'s
    ``Process._receive_packet`` with a :class:`~repro.sim.network.Packet`.

    ``multicast(src, dsts, payload)`` is the fan-out form: one ``send`` per
    destination, in order, with the work that depends on the payload alone
    done once (the simulator sizes it, the socket backend encodes it).  It
    hands that result to ``send`` as a fourth positional argument, which
    each backend defines for its own ``multicast`` and no other caller
    passes — so anything standing in for ``send`` must forward it.
    """

    sim: Any  # the clock the attached processes schedule against
    default_link: LinkModel
    stats: NetworkStats

    def attach(self, process: "Process") -> None: ...

    def process(self, pid: str) -> "Process": ...

    @property
    def pids(self) -> Tuple[str, ...]: ...

    def set_link(self, src: str, dst: str, model: LinkModel) -> None: ...

    def set_link_symmetric(self, a: str, b: str, model: LinkModel) -> None: ...

    def link(self, src: str, dst: str) -> LinkModel: ...

    def partition(self, *groups: Set[str]) -> None: ...

    def heal(self) -> None: ...

    def connected(self, a: str, b: str) -> bool: ...

    def note_crash(self, pid: str) -> None: ...

    def send(self, src: str, dst: str, payload: Any,
             prepared: Any = None) -> Optional[Packet]: ...

    def multicast(self, src: str, dsts: Iterable[str], payload: Any) -> None: ...


def missing_surface(transport: Any) -> Tuple[str, ...]:
    """Names from :data:`TRANSPORT_SURFACE` the given object lacks.

    ``isinstance(x, Transport)`` only checks callable members on some
    interpreter versions; this helper is the exhaustive check the
    conformance tests use.
    """
    return tuple(name for name in TRANSPORT_SURFACE if not hasattr(transport, name))
