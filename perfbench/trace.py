"""Layer tracing from outside: spans around every layer's entry points.

:func:`traced` is a context manager that wraps, at class or module level,
the functions through which work enters each layer of the stack, and
restores every one of them on exit (also when the body raises).  Nothing in
``src/`` knows it is being traced.  The hot classes are slotted and members
cache bound methods at construction, so the stack under test must be *built
inside* the ``with`` block.

A span is recorded where a call *crosses into* a layer: a wrapped function
called while a span of its own layer is already open passes straight through
(its time is its layer's either way; :data:`NESTED_SPANS` names the one
exception), and message sizing
(``catocs.messages``) is a leaf whose callees are not recorded apart.  Both
rules cut the span count by more than half where it is highest, the
O(buffer) re-sizing of the stability buffer on every message.

Each span is (name, parent span, start, end); spans are kept in flat
``array`` columns (untracked by the cyclic GC, ~22 bytes each, so a million
spans do not distort the run they measure) and the slice a span belongs to
is recovered from the slice's index range.  A span's *self time* is its
duration minus the durations of its direct children, minus a measured
per-span allowance for the wrappers themselves.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Layers, named after the repository's modules.  ``runtime.*`` layers see
#: no calls in the sim workloads; ``sim.kernel`` sees none over UDP.
LAYERS: Tuple[str, ...] = (
    "sim.kernel",
    "sim.network",
    "sim.process",
    "catocs.member",
    "catocs.stack",
    "catocs.dedup",
    "catocs.stability",
    "catocs.ordering",
    "catocs.messages",
    "ordering.dense",
    "ordering.matrix",
    "runtime.codec",
    "runtime.udp",
    "runtime.asyncio_rt",
)

#: Layers whose spans record no children: all time beneath them is theirs.
LEAF_LAYERS: Tuple[str, ...] = ("catocs.messages",)

#: Spans recorded even when their own layer is already open, because a
#: metric reads their time by name (``runtime.udp.sendto_us_per_dgram``:
#: the transport's ``sendto`` is only ever reached from ``UdpNetwork.send``).
NESTED_SPANS: Tuple[str, ...] = ("_SelectorDatagramTransport.sendto",)

_DENSE_METHODS = (
    "copy", "stamped", "__getitem__", "__iter__", "__len__", "items", "as_dict",
    "tick", "advance", "merge_in", "merged", "__eq__", "__le__", "__lt__",
    "__ge__", "__gt__", "concurrent_with",
)
_MATRIX_METHODS = (
    "make_clock", "row", "update_row", "set_component", "min_vector", "stable",
    "size_bytes",
)
_ORDERING_METHODS = ("stamp", "accept_local", "insert", "release_next", "on_control", "poke")


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer) for every entry point to wrap."""
    import asyncio.selector_events as selector_events

    from repro.catocs import hybrid, member, messages, ordering_layers, stack, transport
    from repro.ordering import dense, matrix
    from repro.runtime import asyncio_rt, codec, udp
    from repro.sim import kernel, network, process

    out: List[Tuple[Any, str, str]] = []

    def add(owner: Any, layer: str, *names: str) -> None:
        out.extend((owner, name, layer) for name in names)

    add(kernel.Simulator, "sim.kernel", "run", "call_later", "call_at")
    # estimate_size and the clocks' size_bytes are not wrapped: they are only
    # ever reached through Network.send (their own layer) or through message
    # sizing (a leaf), so a wrapper would add a call and never a span.
    add(network.Network, "sim.network", "send", "_deliver")
    add(process.Process, "sim.process", "dispatch", "set_timer")
    # multicast/send are the member's outbound entry points; the three
    # handlers are its inbound ones (registered as bound methods at
    # construction).  Without them the member's receive-side work would be
    # charged to Process.dispatch.
    add(member.GroupMember, "catocs.member", "multicast", "send",
        "_on_data_message", "_on_transport_control", "_on_ordering_control")
    add(stack.ProtocolStack, "catocs.stack", "broadcast", "receive_data", "on_control")
    add(transport.DedupRepairLayer, "catocs.dedup", "send_down", "receive_up", "on_control")
    add(transport.StabilityLayer, "catocs.stability", "send_down", "on_control",
        "absorb_ack_vector", "note_sender_holds", "buffer_message",
        "publish_own_counts", "check_stability")
    ordering_classes = [
        value for value in vars(ordering_layers).values()
        if isinstance(value, type) and issubclass(value, ordering_layers.OrderingLayer)
    ] + [hybrid.HybridCausalOrdering]
    for cls in ordering_classes:
        add(cls, "catocs.ordering", *(n for n in _ORDERING_METHODS if n in vars(cls)))
    add(messages.DataMessage, "catocs.messages", "size_bytes")
    add(dense.DenseVectorClock, "ordering.dense",
        *(n for n in _DENSE_METHODS if n in vars(dense.DenseVectorClock)))
    add(dense, "ordering.dense", "bss_deliverable")
    # ordering_layers imported the function by name; same function, same layer.
    add(ordering_layers, "ordering.dense", "bss_deliverable")
    add(matrix.MatrixClock, "ordering.matrix",
        *(n for n in _MATRIX_METHODS if n in vars(matrix.MatrixClock)))
    add(codec, "runtime.codec", "encode_datagram", "decode_datagram")
    add(udp.UdpNetwork, "runtime.udp", "send")
    add(udp._MemberProtocol, "runtime.udp", "datagram_received")
    add(selector_events._SelectorDatagramTransport, "runtime.udp", "sendto")
    add(asyncio_rt.AsyncioClock, "runtime.asyncio_rt", "call_later")
    return out


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the wrappers that fill it."""

    __slots__ = ("names", "layer_of", "_name_ids", "name_col", "parent_col",
                 "start_col", "end_col", "current", "layer", "on", "slices",
                 "outer_cost_s", "inner_cost_s", "_timer_layers")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        #: index of the open span, -1 at top level
        self.current = -1
        #: layer (index into LAYERS) of the open span, -1 at top level
        self.layer = -1
        #: spans are recorded only inside a slice's timed region
        self.on = False
        #: (first span index, one past the last, wall start, wall end)
        self.slices: List[Tuple[int, int, float, float]] = []
        #: wrapper time charged to the parent / to the span itself, per span
        self.outer_cost_s = 0.0
        self.inner_cost_s = 0.0
        self._timer_layers: List[Tuple[type, str]] = []

    # -- recording ------------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` with a span around each call that enters ``layer`` from
        another layer while a slice is open."""
        nid = self.name_id(name, layer)
        lid = LAYERS.index(layer) if layer in LAYERS else len(LAYERS)
        leaf = layer in LEAF_LAYERS
        nested = name in NESTED_SPANS
        tracer = self
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on or (tracer.layer == lid and not nested):
                return fn(*args, **kwargs)
            parent = tracer.current
            parent_layer = tracer.layer
            index = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = index
            tracer.layer = lid
            if leaf:
                tracer.on = False
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parent
                tracer.layer = parent_layer
                if leaf:
                    tracer.on = True

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _wrap_set_timer(self, set_timer: Callable[..., Any]) -> Callable[..., Any]:
        """``Process.set_timer`` that also wraps the scheduled callback, so
        timer work (NAK timers, gossip ticks, proposal timeouts) is charged
        to the layer that armed it rather than to the kernel."""
        tracer = self

        def traced_set_timer(process: Any, delay: float, fn: Callable[..., Any],
                             *args: Any) -> Any:
            owner = getattr(fn, "__self__", None)
            layer = "sim.process"
            for cls, cls_layer in tracer._timer_layers:
                if isinstance(owner, cls):
                    layer = cls_layer
                    break
            label = f"timer:{getattr(fn, '__qualname__', type(fn).__name__)}"
            return set_timer(process, delay, tracer.wrap(fn, label, layer), *args)

        traced_set_timer.__wrapped__ = set_timer  # type: ignore[attr-defined]
        return traced_set_timer

    @contextmanager
    def slice(self) -> Iterator[None]:
        """Open a slice: the timed region whose spans are kept."""
        first = len(self.start_col)
        self.current = -1
        self.layer = -1
        self.on = True
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            wall_end = time.perf_counter()
            self.on = False
            self.slices.append((first, len(self.start_col), wall_start, wall_end))

    def _measure_wrapper_cost(self, calls: int = 20_000) -> None:
        """How long the wrapper itself takes, split at the two clock reads:
        the part inside the span's own interval and the part its parent sees."""

        def noop() -> None:
            return None

        wrapped = self.wrap(noop, "harness.noop", "harness")
        first = len(self.start_col)
        self.on = True
        try:
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            total = time.perf_counter() - start
        finally:
            self.on = False
        inside = sum(self.end_col[i] - self.start_col[i] for i in range(first, first + calls))
        for column in (self.name_col, self.parent_col, self.start_col, self.end_col):
            del column[first:]
        self.inner_cost_s = max(0.0, (inside - bare) / calls)
        self.outer_cost_s = max(0.0, (total - inside) / calls)

    # -- analysis -------------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return summarize(
            self.names, self.layer_of, self.name_col, self.parent_col,
            self.start_col, self.end_col, self.slices,
            self.outer_cost_s, self.inner_cost_s,
        )

    def dump(self, path: str) -> None:
        """Write every span (name, parent, slice, start, end) as JSON."""
        slice_of = array("i", [0]) * len(self.start_col)
        for number, (first, last, _, _) in enumerate(self.slices):
            for i in range(first, last):
                slice_of[i] = number
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "layers": self.layer_of,
                "columns": ["name", "parent", "slice", "start_s", "end_s"],
                "spans": [
                    [self.name_col[i], self.parent_col[i], slice_of[i],
                     self.start_col[i], self.end_col[i]]
                    for i in range(len(self.start_col))
                ],
                "slices": [
                    {"first": a, "end": b, "start_s": s, "end_s": e}
                    for a, b, s, e in self.slices
                ],
            }, handle)


@dataclass
class TraceSummary:
    """Per-name and per-layer totals over all slices of one traced pass."""

    #: span name -> [calls, inclusive seconds, self seconds]
    by_name: Dict[str, List[float]] = field(default_factory=dict)
    #: layer -> [calls, self seconds]
    by_layer: Dict[str, List[float]] = field(default_factory=dict)
    #: sum of slice wall times
    wall_s: float = 0.0
    #: wall time inside some span (sum of top-level span durations)
    covered_s: float = 0.0

    @property
    def residual_s(self) -> float:
        """Slice time outside every span: event loop, selector, the driver."""
        return max(0.0, self.wall_s - self.covered_s)

    def self_share(self, layer: str) -> float:
        """``layer``'s self time as a share of all attributed time plus the
        residual (the wrappers' own time is in neither), so the layers'
        shares and the residual's share sum to one."""
        total = sum(entry[1] for entry in self.by_layer.values()) + self.residual_s
        return self.by_layer.get(layer, [0, 0.0])[1] / total if total else 0.0

    def calls(self, layer: str) -> int:
        return int(self.by_layer.get(layer, [0, 0.0])[0])


def summarize(
    names: Sequence[str],
    layer_of: Sequence[str],
    name_col: Sequence[int],
    parent_col: Sequence[int],
    start_col: Sequence[float],
    end_col: Sequence[float],
    slices: Sequence[Tuple[int, int, float, float]],
    outer_cost_s: float = 0.0,
    inner_cost_s: float = 0.0,
) -> TraceSummary:
    """Self-time arithmetic over span columns.

    ``self = duration - sum(direct children's durations)``, less the wrapper
    allowance: each child cost its parent ``outer_cost_s`` outside the
    child's own interval, and each span spent ``inner_cost_s`` of its own
    interval in its wrapper.  Clamped at zero.
    """
    count = len(start_col)
    child_time = [0.0] * count
    child_count = [0] * count
    summary = TraceSummary()
    for first, last, wall_start, wall_end in slices:
        summary.wall_s += wall_end - wall_start
        for i in range(first, last):
            duration = end_col[i] - start_col[i]
            parent = parent_col[i]
            if parent >= 0:
                child_time[parent] += duration
                child_count[parent] += 1
            else:
                summary.covered_s += duration
    for first, last, _, _ in slices:
        for i in range(first, last):
            duration = end_col[i] - start_col[i]
            allowance = child_count[i] * outer_cost_s + inner_cost_s
            own = max(0.0, duration - child_time[i] - allowance)
            name = names[name_col[i]]
            entry = summary.by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            layer_entry = summary.by_layer.setdefault(layer_of[name_col[i]], [0, 0.0])
            layer_entry[0] += 1
            layer_entry[1] += own
    return summary


@contextmanager
def traced() -> Iterator[Tracer]:
    """Install the span wrappers; always restore what was there."""
    from repro.catocs.ordering_layers import OrderingLayer
    from repro.catocs.transport import DedupRepairLayer, StabilityLayer
    from repro.sim.process import Process

    tracer = Tracer()
    tracer._timer_layers = [
        (DedupRepairLayer, "catocs.dedup"),
        (StabilityLayer, "catocs.stability"),
        (OrderingLayer, "catocs.ordering"),
    ]
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, layer in _targets():
            original = vars(owner)[attribute]
            wrapper = tracer.wrap(original, f"{_owner_name(owner)}.{attribute}", layer)
            if owner is Process and attribute == "set_timer":
                wrapper = tracer._wrap_set_timer(wrapper)
            patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        tracer._measure_wrapper_cost()
        yield tracer
    finally:
        tracer.on = False
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def patched_attributes() -> List[Tuple[Any, str]]:
    """Every (owner, attribute) :func:`traced` replaces, for the restore test."""
    return [(owner, attribute) for owner, attribute, _ in _targets()]
