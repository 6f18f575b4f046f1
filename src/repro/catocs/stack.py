"""Composable protocol stacks: the layer interface and the layer registry.

The paper's Section 5 argument is about how *stacked* protocol machinery —
dedup, stability buffering, causal/total ordering — compounds its costs.
This module makes that stack explicit: a :class:`ProtocolStack` is an
ordered pipeline of :class:`ProtocolLayer` instances composed by name from a
registry, selected with a spec string such as ``"dedup|stability|causal"``.
A member builds its stack from its one ``ordering`` argument, and everything
else reaches it as ``member.stack``, or one layer as
``member.stack.layer(name)``.

Spec strings read left to right as **bottom to top** (network side first,
application side last); the top layer must be an ordering discipline.  The
friendly discipline names every experiment uses (``"causal"``,
``"total-seq"``, ...) are aliases for full specs — see :data:`DISCIPLINES`.

Data path::

    multicast -> ordering.stamp -> [send_down: top..bottom] -> network
    network -> [receive_up: bottom..top] -> ordering.insert -> deliver

Two deliberate deviations from a *pure* linear pipeline, both documented at
the point of coupling:

- **Peer services between dedup and stability.**  The wire format piggybacks
  the sender's ack vector *on data messages*, so the receive path must feed
  the stability matrix before the dedup check (a duplicate still carries
  fresh ack state) and the send path must snapshot the ack vector before the
  dedup layer counts the outgoing message as received.  The dedup layer
  therefore drives the receive choreography, calling the stability layer's
  service methods at exactly the points the monolithic transport did —
  preserving byte-identical behaviour for the legacy stacks.

- **The batch layer intercepts ``member.send``** rather than sitting on the
  data path, because it must coalesce *all* same-tick traffic (data, acks,
  NAKs, ordering control, heartbeats) into one envelope per destination.
  This makes its position in the spec string irrelevant.

Each layer class also declares what it promises about delivery: ``order``,
its level in the paper's Section 2 lattice (:data:`ORDER_NONE` ⊂
:data:`ORDER_FIFO` ⊂ :data:`ORDER_CAUSAL` ⊂ :data:`ORDER_TOTAL`), and
``stable``, whether it retains messages until every member holds them.
:func:`guarantee` reads a spec's promise off its layers: the order of its
top layer, and stability if any layer is stable.  An ordering layer also
declares ``stamped``, whether every data message it sends carries a vector
clock; its stack drops a received one without before any layer sees it.

Writing a new layer: subclass :class:`ProtocolLayer`, set its ``name``,
``kind``, ``order``, ``stable`` and ``stamped``, override the hooks you need, and call
``register_layer(cls)`` at module import.  See ``docs/ARCHITECTURE.md`` for
a walkthrough.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.catocs.messages import BatchEnvelope, DataMessage, MsgId

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember

#: The delivery-order lattice, bottom to top.
ORDER_NONE = 0
ORDER_FIFO = 1
ORDER_CAUSAL = 2
ORDER_TOTAL = 3

ORDER_NAMES = {
    ORDER_NONE: "none",
    ORDER_FIFO: "fifo",
    ORDER_CAUSAL: "causal",
    ORDER_TOTAL: "total",
}


class ProtocolLayer:
    """One stage of a member's protocol stack.

    Layers are constructed with the owning member, then bound to their stack
    (:meth:`bind`, :meth:`on_attached`).  Transport-kind layers see every
    outgoing data message in :meth:`send_down` (top to bottom) and every
    incoming one in :meth:`receive_up` (bottom to top); returning ``None``
    from ``receive_up`` swallows the message (e.g. a duplicate).  Ordering
    layers sit at the top and are driven through the richer delivery-gate
    API (``stamp`` / ``accept_local`` / ``insert`` / ``release_next``)
    defined by :class:`~repro.catocs.ordering_layers.OrderingLayer`.

    Every layer may expose :meth:`layer_metrics`; the stack publishes them
    as ``stack.<layer>.<metric>`` gauges in the member's metrics registry.
    """

    name = "abstract"
    #: "transport" for pipeline layers, "ordering" for the top discipline.
    kind = "transport"
    #: the lattice level this layer promises when it is the stack's top.
    order = ORDER_NONE
    #: whether it retains messages until every member is known to hold them.
    stable = False
    #: whether, as the stack's top, it stamps every data message with ``vc``.
    stamped = False

    # Slotted: member/stack are touched on every hop of the data path.
    # Subclasses outside this module stay unslotted (they get a __dict__
    # for their own layer state) without losing slot access to these two.
    __slots__ = ("member", "stack")

    def __init__(self, member: "GroupMember") -> None:
        self.member = member
        self.stack: Optional["ProtocolStack"] = None

    def bind(self, stack: "ProtocolStack") -> None:
        self.stack = stack

    def on_attached(self) -> None:
        """Called once after every layer of the stack is bound."""

    # -- data path -------------------------------------------------------------

    def send_down(self, msg: DataMessage) -> None:
        """Process an outgoing data message on its way to the network."""

    def receive_up(self, src: str, msg: DataMessage) -> Optional[DataMessage]:
        """Process an incoming data message; ``None`` swallows it."""
        return msg

    # -- control path ----------------------------------------------------------

    def on_control(self, src: str, payload: Any) -> None:
        """Handle a control message; ignore one that is not ours."""

    # -- membership ------------------------------------------------------------

    def on_membership_changed(self, members: Sequence[str]) -> None:
        """React to an installed view (rebuild per-member state)."""

    # -- observability ---------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Any]:
        """Current per-layer metric values, published as ``stack.<name>.*``."""
        return {}


class ProtocolStack:
    """An ordered pipeline of protocol layers for one group member.

    ``layers`` runs bottom (network side) to top (ordering discipline).
    Layers are instantiated top-first so side effects at construction keep
    the legacy order: the ordering layer registers its observability series
    and resolves the group's clock domain before any transport layer arms
    its timers — exactly what the monolithic member constructor did.
    """

    __slots__ = ("member", "spec", "layers", "_by_name", "_stamped", "unstamped_dropped")

    def __init__(self, member: "GroupMember", names: Sequence[str]) -> None:
        names = tuple(names)
        _validate(names)
        self.member = member
        self.spec = "|".join(names)
        instances: Dict[str, ProtocolLayer] = {}
        for name in reversed(names):
            instances[name] = LAYER_REGISTRY[name](member)
        #: bottom -> top
        self.layers: List[ProtocolLayer] = [instances[n] for n in names]
        self._by_name = instances
        self._stamped = self.layers[-1].stamped
        #: received data messages without the stamp the ordering layer needs
        self.unstamped_dropped = 0
        for layer in self.layers:
            layer.bind(self)
        for layer in self.layers:
            layer.on_attached()

    # -- composition introspection ----------------------------------------------

    @property
    def ordering(self) -> ProtocolLayer:
        """The top layer: the ordering discipline."""
        return self.layers[-1]

    def layer(self, name: str) -> Optional[ProtocolLayer]:
        return self._by_name.get(name)

    # -- data path ---------------------------------------------------------------

    def broadcast(self, msg: DataMessage) -> None:
        """Push a stamped data message down the stack and onto the wire."""
        for layer in reversed(self.layers[:-1]):
            layer.send_down(msg)
        self.transmit(msg)

    def transmit(self, msg: DataMessage) -> None:
        self.member.send_peers(msg)

    def receive_data(self, src: str, msg: DataMessage) -> Optional[DataMessage]:
        """Run an incoming data message up through the transport layers.

        Returns the message for the ordering layer, or ``None`` if a layer
        swallowed it (duplicate).  The member records its receive trace and
        feeds the ordering layer itself, so application delivery interleaves
        with release accounting (see ``OrderingLayer.release_next``).

        A message a stamping stack cannot order (no ``vc``: only a forged or
        broken sender sends one) is dropped first: once dedup counted its
        seq, the real message with that seq would be dropped as a duplicate.
        """
        if msg.vc is None and self._stamped:
            self.unstamped_dropped += 1
            return None
        current: Optional[DataMessage] = msg
        for layer in self.layers[:-1]:
            current = layer.receive_up(src, current)
            if current is None:
                return None
        return current

    # -- control path ------------------------------------------------------------

    def on_control(self, src: str, payload: Any) -> None:
        """Offer a control message to every layer, bottom to top."""
        for layer in self.layers:
            layer.on_control(src, payload)

    # -- membership ---------------------------------------------------------------

    def membership_changed(self, members: Sequence[str]) -> None:
        for layer in self.layers:
            layer.on_membership_changed(members)

    # -- repair service ------------------------------------------------------------

    def repair_lookup(self, msg_id: MsgId) -> Optional[DataMessage]:
        """Find a buffered copy of ``msg_id`` in any layer that retains one
        (the stability buffer, or a hybrid layer's sender-side retention)."""
        for layer in reversed(self.layers):
            lookup = getattr(layer, "repair_lookup", None)
            if lookup is not None:
                found = lookup(msg_id)
                if found is not None:
                    return found
        return None

    # -- observability ---------------------------------------------------------------

    def register_metrics(self) -> None:
        """Publish every layer's metrics as ``stack.<layer>.<metric>`` gauges."""
        registry = self.member.sim.metrics
        pid = self.member.pid
        for layer in self.layers:
            for key in layer.layer_metrics():
                registry.gauge_fn(
                    f"stack.{layer.name}.{key}",
                    lambda l=layer, k=key: l.layer_metrics().get(k, 0),
                    pid=pid, discipline=self.ordering.name,
                )


# -- the batching layer --------------------------------------------------------------


class BatchLayer(ProtocolLayer):
    """Same-tick piggyback batching (Nédelec et al.: amortising per-message
    cost is the scalability lever for causal broadcast).

    All payloads a member emits within one simulation instant — data, acks,
    NAKs, ordering control, heartbeats — are coalesced into one
    :class:`~repro.catocs.messages.BatchEnvelope` per destination, sent when
    the tick's event cascade has quiesced (a zero-delay timer).  A
    destination with a single pending payload gets it unwrapped, so the
    quiet-path wire format is unchanged.

    The layer intercepts ``member.send`` (via the member's ``_batcher``
    hook) instead of sitting on the data path, so its position in the spec
    string does not matter; ``send_down``/``receive_up`` are pass-through.
    E07/E15 read ``payloads_coalesced - batches_sent`` as the number of
    network messages saved.
    """

    name = "batch"
    kind = "transport"

    __slots__ = (
        "_queues",
        "_flush_armed",
        "batches_sent",
        "singles_sent",
        "payloads_coalesced",
        "peak_batch",
    )

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self._queues: Dict[str, List[Any]] = {}
        self._flush_armed = False
        self.batches_sent = 0
        self.singles_sent = 0
        self.payloads_coalesced = 0
        self.peak_batch = 0

    def on_attached(self) -> None:
        self.member._batcher = self

    def enqueue(self, dst: str, payload: Any) -> None:
        """Queue one outbound payload; flush fires once the tick quiesces."""
        self._queues.setdefault(dst, []).append(payload)
        if not self._flush_armed:
            self._flush_armed = True
            self.member.set_timer(0.0, self._flush)

    def _flush(self) -> None:
        from repro.sim.process import Process

        self._flush_armed = False
        queues, self._queues = self._queues, {}
        member = self.member
        # Flush in enqueue order deliberately: it mirrors the send order the
        # unbatched stack would have produced this tick, which the seed
        # reports are calibrated against.
        for dst, payloads in queues.items():  # repro: ignore[DET003]
            if len(payloads) == 1:
                self.singles_sent += 1
                Process.send(member, dst, payloads[0])
            else:
                self.batches_sent += 1
                self.payloads_coalesced += len(payloads)
                if len(payloads) > self.peak_batch:
                    self.peak_batch = len(payloads)
                Process.send(
                    member, dst,
                    BatchEnvelope(sender=member.pid, payloads=payloads),
                )

    def messages_saved(self) -> int:
        """Network sends avoided by coalescing (vs. the unbatched stack)."""
        return self.payloads_coalesced - self.batches_sent

    def layer_metrics(self) -> Dict[str, Any]:
        return {
            "batches_sent": self.batches_sent,
            "singles_sent": self.singles_sent,
            "payloads_coalesced": self.payloads_coalesced,
            "messages_saved": self.messages_saved(),
            "peak_batch": self.peak_batch,
        }


# -- registry ----------------------------------------------------------------------------

#: layer name (``cls.name``, the word used in spec strings) -> layer class
LAYER_REGISTRY: Dict[str, Type[ProtocolLayer]] = {}


def register_layer(cls: Type[ProtocolLayer]) -> None:
    """Make ``cls`` addressable in spec strings under ``cls.name``; its
    ``kind`` says whether it is a transport layer or an ordering discipline."""
    LAYER_REGISTRY[cls.name] = cls


register_layer(BatchLayer)


#: Friendly discipline names -> full stack specs (bottom|...|top).
DISCIPLINES: Dict[str, str] = {
    "raw": "dedup|stability|raw",
    "fifo": "dedup|stability|fifo",
    "causal": "dedup|stability|causal",
    "total-seq": "dedup|stability|total-seq",
    "total-agreed": "dedup|stability|total-agreed",
    "hybrid-causal": "dedup|hybrid-causal",
    "batched-causal": "dedup|batch|stability|causal",
}


def _ensure_layers_imported() -> None:
    """Late-import the modules that register the built-in layers."""
    from repro.catocs import hybrid, ordering_layers, transport  # noqa: F401


def resolve_spec(name: str) -> Tuple[str, ...]:
    """Resolve a discipline alias or explicit spec string to layer names.

    Raises :class:`ValueError` for unknown disciplines, unknown layers, or
    a spec whose top layer is not an ordering discipline.
    """
    _ensure_layers_imported()
    spec = name if "|" in name else DISCIPLINES.get(name, name)
    names = tuple(part.strip() for part in spec.split("|") if part.strip())
    if not names:
        raise ValueError(f"empty stack spec {name!r}")
    if len(names) == 1 and names[0] not in LAYER_REGISTRY:
        raise ValueError(
            f"unknown discipline {name!r}; options: {sorted(DISCIPLINES)} "
            f"or a '|'-spec over layers {sorted(LAYER_REGISTRY)}"
        )
    _validate(names)
    return names


class Guarantee(NamedTuple):
    """What one resolved stack spec promises about delivery."""

    spec: str
    order: int
    stable: bool

    @property
    def order_name(self) -> str:
        return ORDER_NAMES[self.order]


def guarantee(spec: str) -> Guarantee:
    """The promise of a discipline alias or spec string: its top layer's
    ``order``, and ``stable`` if any of its layers is.  Raises
    :class:`ValueError` for a spec :func:`resolve_spec` refuses."""
    layers = [LAYER_REGISTRY[name] for name in resolve_spec(spec)]
    return Guarantee(spec, layers[-1].order, any(layer.stable for layer in layers))


def _validate(names: Sequence[str]) -> None:
    _ensure_layers_imported()
    unknown = [n for n in names if n not in LAYER_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown layers {unknown}; registered: {sorted(LAYER_REGISTRY)}"
        )
    ordering = [n for n in names if LAYER_REGISTRY[n].kind == "ordering"]
    if len(ordering) != 1 or ordering[0] != names[-1]:
        raise ValueError(
            f"a stack needs exactly one ordering layer, on top; got {list(names)}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate layers in stack spec {list(names)}")
