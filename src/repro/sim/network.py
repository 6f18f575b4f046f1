"""Point-to-point message network with latency, jitter, loss, and partitions.

The network is the *only* channel the CATOCS substrate can see.  Hidden
channels — the shared database of Figure 2, the physical fire of Figure 3 —
are modelled as ordinary processes or out-of-band state, which is exactly the
paper's point: the communication layer has no visibility into them.

Per-link properties are configurable so experiments can create asymmetric
latencies (the ingredient of most reordering anomalies) and inject loss.
Links are datagram links: each packet samples its latency independently, so
two packets on one link may arrive out of order.  A protocol that needs FIFO
channels layers sequence numbers on top, as it would over UDP (the ``fifo``
ordering layer does exactly that).

:class:`Topology` holds what the two transport backends share — the
attached processes, the per-link models and the partition map — and
:class:`Network` adds the simulated data path.  ``UdpNetwork`` subclasses
the same base and offers each of ``Network``'s public methods with the same
leading parameters, so the protocol stacks run unchanged over real UDP
loopback sockets on a wall-clock event loop (see docs/RUNTIME.md).  This
module never imports the runtime.  ``drop_hooks`` is ``Network``'s own:
only the simulator sees every drop as a packet it can hand to a callback.

The module also owns the **byte model** — :func:`estimate_size`, which prices
every packet and so feeds ``bytes_sent``, ``peak_buffered_bytes`` and the
Section 5 overhead tables.  It is a table of sizers keyed by payload type,
filled as types are met: what a shape costs is decided once per type, what a
value costs is computed every time (docs/ARCHITECTURE.md, "The byte model
and the envelope path", has the table and the rules ``send`` keeps).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from types import FunctionType, MemberDescriptorType
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Dict, FrozenSet, Iterable, Optional, Set, Tuple,
)

from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.process import Process


def estimate_size(payload: Any) -> int:
    """Rough wire size of a payload in bytes.

    Used for the Section 5 buffering measurements.  Objects may define
    ``size_bytes()`` for an exact figure; otherwise common containers are
    summed member by member at 8 bytes per scalar, which is adequate for
    comparing growth *trends* across group sizes (the whole model is the
    table in docs/ARCHITECTURE.md, "The byte model").

    One probe of :data:`_SIZERS` by the payload's exact type; a type seen
    for the first time is classified once (:func:`_classify`).
    """
    sizer = _SIZERS.get(type(payload))
    if sizer is None:
        sizer = _classify(type(payload))
    return sizer(payload)


def counts_size(pids: Collection[str]) -> int:
    """Wire size of a pid -> counter map, given its pids: 8 bytes per counter
    plus each pid's UTF-8 bytes — what every clock and ack vector costs."""
    return 8 * len(pids) + _size_str("".join(pids))


def _size_one(payload: Any) -> int:
    return 1


def _size_eight(payload: Any) -> int:
    return 8


def _size_str(text: str) -> int:
    # Accounting never raises: a lone surrogate counts as the one "?" that
    # ``errors="replace"`` would send in its place.
    return len(text) if text.isascii() else len(text.encode("utf-8", "replace"))


def _size_hook(payload: Any) -> int:
    return int(payload.size_bytes())


def _sum_sizes(values: Iterable[Any]) -> int:
    total = 0
    sizers = _SIZERS
    for value in values:
        sizer = sizers.get(type(value))
        total += sizer(value) if sizer is not None else estimate_size(value)
    return total


def _size_items(items: Any) -> int:
    return 8 + _sum_sizes(items)


def _size_dict(mapping: Dict[Any, Any]) -> int:
    """``8 + sum(size(k) + size(v))``, each half taken in one C call when its
    shape allows.

    Exact types only: a ``str`` subclass may carry a ``size_bytes`` hook and
    a ``bool`` value is 1 byte, not 8.  The UTF-8 length of the joined keys
    is the sum of the keys' lengths, also under ``errors="replace"``.
    """
    if set(map(type, mapping)) <= _EXACT_STR:
        total = 8 + _size_str("".join(mapping))
    else:
        total = 8 + _sum_sizes(mapping)
    values = mapping.values()
    if set(map(type, values)) <= _EXACT_NUMBERS:
        return total + 8 * len(values)
    return total + _sum_sizes(values)


def _size_object(payload: Any) -> int:
    fields = vars(payload)
    if "size_bytes" in fields:  # a hook set on the instance, not the class
        return int(payload.size_bytes())
    # Through the table, not straight to _size_dict: the vars() of a class
    # (an Enum member's ``__objclass__``) is a mappingproxy, opaque at 8.
    return 8 + estimate_size(fields)


def _size_record(names: FrozenSet[str], fixed: int, payload: Any) -> int:
    """A dataclass instance holding exactly its declared fields: what
    :func:`_size_object` would say, with the names priced once for the type
    (``fixed`` is 16 plus their UTF-8 bytes).  One attribute more or fewer —
    an instance-level ``size_bytes`` is one more — and it is ``_size_object``
    that answers.  Attribute names are taken to be plain ``str``, as a
    dataclass ``__init__`` makes them."""
    attrs = vars(payload)
    if attrs.keys() == names:
        return fixed + _sum_sizes(attrs.values())
    return _size_object(payload)


_UNSET = object()


def _size_slotted(slots: Tuple[Tuple[str, int], ...], payload: Any) -> int:
    """A ``__slots__`` instance with no ``__dict__``: what its unslotted twin
    would cost, counting only the slots that are set."""
    total = 16
    for name, name_bytes in slots:
        value = getattr(payload, name, _UNSET)
        if value is not _UNSET:
            total += name_bytes + estimate_size(value)
    return total


def _size_instance(payload: Any) -> int:
    """For a type that cannot speak for its instances' ``size_bytes``: ask
    this one, then size it by shape."""
    if hasattr(payload, "size_bytes"):
        return int(payload.size_bytes())
    return _by_shape(type(payload))(payload)


_EXACT_STR = frozenset({str})
_EXACT_NUMBERS = frozenset({int, float})

#: The byte model's shape rungs, in the order the questions are asked (so
#: ``bool`` is met before ``int``); a subclass answers to the first rung it
#: is an instance of.
_SHAPES: Tuple[Tuple[type, Callable[[Any], int]], ...] = (
    (type(None), _size_one),
    (bool, _size_one),
    (int, _size_eight),
    (float, _size_eight),
    (str, _size_str),
    (bytes, len),
    (dict, _size_dict),
    (list, _size_items),
    (tuple, _size_items),
    (set, _size_items),
    (frozenset, _size_items),
)

#: exact payload type -> sizer.  Starts as the builtins above; every other
#: type is added by :func:`_classify` the first time one of its instances is
#: sized.  It memoises which *question* a type asks, never an answer: a size
#: stays a pure function of the value.  One entry, and one strong reference
#: to the class, per payload type for the life of the process.
_SIZERS: Dict[type, Callable[[Any], int]] = dict(_SHAPES)


def _by_shape(cls: type) -> Callable[[Any], int]:
    for base, sizer in _SHAPES:
        if issubclass(cls, base):
            return sizer
    mro = cls.__mro__
    if any("__dict__" in vars(klass) for klass in mro):
        return _size_object
    # Python-level slots only (a class statement that says ``__slots__``);
    # their member descriptors carry the mangled names ``vars()`` would.
    slotted = [klass for klass in mro if "__slots__" in vars(klass)]
    if not slotted:
        return _size_eight
    return partial(_size_slotted, tuple(
        (name, _size_str(name))
        for klass in slotted
        for name, member in vars(klass).items()
        if type(member) is MemberDescriptorType
    ))


def _classify(cls: type) -> Callable[[Any], int]:
    """Choose the sizer for ``cls`` and remember it.

    A class-level ``size_bytes`` wins; otherwise the shape decides.  Two
    kinds of type cannot answer ``hasattr(obj, "size_bytes")`` for their
    instances: one whose lookup is programmable (``__getattr__`` or a
    Python ``__getattribute__`` in the MRO — never memoised), and a builtin
    subclass whose instances carry a ``__dict__`` a hook could sit in.
    Both ask each instance (:func:`_size_instance`).  A dataclass sized
    through its ``vars()`` has its field names read here, once
    (:func:`_size_record`); ``fields()`` leaves out ``ClassVar`` and
    ``InitVar`` pseudo-fields, which no instance carries.
    """
    hook = False
    for klass in cls.__mro__:
        names = vars(klass)
        if "__getattr__" in names or type(names.get("__getattribute__")) is FunctionType:
            return _size_instance
        hook = hook or "size_bytes" in names
    if hook:
        sizer = _size_hook
    else:
        sizer = _by_shape(cls)
        if sizer is _size_object:
            if is_dataclass(cls):
                names = frozenset(field.name for field in fields(cls))
                sizer = partial(_size_record, names, 16 + sum(map(_size_str, names)))
        elif cls.__dictoffset__:
            sizer = _size_instance
    _SIZERS[cls] = sizer
    return sizer


@dataclass(slots=True)
class LinkModel:
    """Latency/loss model for one directed link.

    ``latency`` is the base one-way delay; each packet adds uniform jitter in
    ``[0, jitter]`` and is dropped with probability ``drop_prob``.
    """

    latency: float = 1.0
    jitter: float = 0.0
    drop_prob: float = 0.0

    def sample_latency(self, rng) -> float:
        if self.jitter <= 0:
            return self.latency
        return self.latency + rng.uniform(0.0, self.jitter)

    def sample_drop(self, rng) -> bool:
        return self.drop_prob > 0 and rng.random() < self.drop_prob


@dataclass(slots=True)
class Packet:
    """A message in flight.

    ``slots=True``: one envelope is allocated per network send, and three
    heap entries in four are a packet's delivery (the kernel's own ``Event``
    is a ``__slots__`` flyweight for the same reason).
    """

    packet_id: int
    src: str
    dst: str
    payload: Any
    send_time: float
    size: int


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters, used by every cost experiment."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    partitioned: int = 0
    to_crashed: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "partitioned": self.partitioned,
            "to_crashed": self.to_crashed,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }


class Topology:
    """Who is attached, how each directed link behaves, and which processes
    can reach each other: the half of the transport seam both backends
    share.

    ``partition``/``heal`` only rewrite the partition map; each backend's
    data path consults :meth:`connected` at send and again at delivery.
    """

    __slots__ = ("default_link", "_processes", "_links", "_partition_of")

    def __init__(self, default_link: LinkModel) -> None:
        self.default_link = default_link
        self._processes: Dict[str, "Process"] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        self._partition_of: Dict[str, int] = {}

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

    def partition(self, *groups: Set[str]) -> None:
        """Split processes into disjoint partitions.

        Processes not named in any group stay in partition 0 along with the
        first group.  Packets only flow within a partition.
        """
        self._partition_of = {pid: index for index, group in enumerate(groups)
                              for pid in group}

    def heal(self) -> None:
        """Remove all partitions."""
        self._partition_of = {}

    def connected(self, a: str, b: str) -> bool:
        return self._partition_of.get(a, 0) == self._partition_of.get(b, 0)


class Network(Topology):
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
        super().__init__(default_link or LinkModel())
        self.sim = sim
        self.stats = NetworkStats()
        self._packet_ids = itertools.count()
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
        #: per-link latency histograms, memoized by (src, dst)
        self._latency_hists: Dict[Tuple[str, str], Any] = {}

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
        sim = self.sim
        now = sim.now
        stats = self.stats
        packet = Packet(next(self._packet_ids), src, dst, payload, now, size)
        stats.sent += 1
        stats.bytes_sent += size

        # The directed-link key is consulted twice below (link model,
        # latency histogram); build the tuple once.
        key = (src, dst)
        # An empty map is every run that never partitions: all connected.
        if self._partition_of and not self.connected(src, dst):
            stats.partitioned += 1
            self._m_drop_partition.inc()
            self._on_drop(packet)
            return None
        # The link model is read here, not asked (sample_drop/sample_latency),
        # with the same draws in the same order and the same float expression:
        # docs/ARCHITECTURE.md, "The byte model and the envelope path".
        model = self._links.get(key, self.default_link)
        drop_prob = model.drop_prob
        if drop_prob > 0 and sim.rng.random() < drop_prob:
            stats.dropped += 1
            self._m_drop_loss.inc()
            self._on_drop(packet)
            return None

        jitter = model.jitter
        if jitter <= 0:
            arrival = now + model.latency
        else:
            arrival = now + (model.latency + sim.rng.uniform(0.0, jitter))
        hist = self._latency_hists.get(key)
        if hist is None:
            hist = sim.metrics.histogram("net.link_latency", src=src, dst=dst)
            self._latency_hists[key] = hist
        hist.observe(arrival - now)
        sim.post_at(arrival, self._deliver, packet)
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
        stats = self.stats
        process = self._processes.get(packet.dst)
        if process is None or not process.alive:
            stats.to_crashed += 1
            self._m_drop_crashed.inc()
            self._on_drop(packet)
            return
        if self._partition_of and not self.connected(packet.src, packet.dst):
            # Partition formed while the packet was in flight.
            stats.partitioned += 1
            self._m_drop_in_flight.inc()
            self._on_drop(packet)
            return
        stats.delivered += 1
        stats.bytes_delivered += packet.size
        process._receive_packet(packet)

    def _on_drop(self, packet: Packet) -> None:
        for hook in self.drop_hooks:
            hook(packet)
