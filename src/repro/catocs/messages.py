"""Wire messages for the CATOCS protocol stack.

Every protocol message is a dataclass so :func:`repro.sim.network.estimate_size`
can account header overhead (notably the vector clock, whose size grows
linearly with group membership — the E07 measurement).  A plain dataclass
here is priced by the byte model's object rule, over its ``vars()``: 16 bytes
plus, per field, the field name and the value — so a new control message
needs no sizing code, and keeping its fields to ``str``/number scalars and
pid -> count dicts keeps it on the model's one-call-per-shape paths.
:class:`DataMessage` and :class:`BatchEnvelope` define ``size_bytes()``
instead (a fixed header, not field names); count maps everywhere cost
:func:`repro.sim.network.counts_size`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from typing import Annotated, Any, Dict, List, Optional, Tuple, TypedDict

from repro.ordering.dense import DenseVectorClock
from repro.sim.network import counts_size, estimate_size

#: A field that names a process; a bare ``str`` is free text.  The wire codec
#: refuses a record whose ``Pid`` names a process the receiver cannot reach.
Pid = Annotated[str, "pid"]
MsgId = Tuple[Pid, int]  # (sender pid, per-sender sequence number)


class OrderingState(TypedDict, total=False):
    """An ordering layer's part of a flush, merged into the next view:
    agreed-order commits and sequencer assignments (index -> message id)."""

    commits: Dict[MsgId, Tuple[int, Pid]]
    assignments: Dict[int, MsgId]


class ControlMessage:
    """Marker base for all protocol control traffic.

    The member registers one inbound handler per marker family (see
    ``Process.add_message_handler``); a message's family decides which part
    of the stack consumes it, replacing per-type isinstance chains.
    """


class TransportControl(ControlMessage):
    """Consumed by the transport layers (dedup/NAK repair, stability)."""


class OrderingControl(ControlMessage):
    """Consumed by the ordering discipline at the top of the stack."""


class MembershipControl(ControlMessage):
    """Consumed by the view-synchronous membership protocol."""


@dataclass
class DataMessage:
    """An application multicast within a group.

    ``seq`` is the per-sender sequence number (so ``(sender, seq)`` is the
    message id); ``vc`` is the causal timestamp piggybacked by causal/total
    ordering; ``ack_vector`` piggybacks the sender's contiguous-receipt
    counts for stability tracking.  On a stamped message those counts are
    the stamp, the sender's own entry read as ``seq - 1``, and
    ``ack_vector`` holds only the entries that differ (``None`` when none
    do, as always loss-free); an unstamped message carries them all.
    """

    group: str
    sender: Pid
    seq: int
    payload: Any
    sent_at: float
    view_id: int = 0
    vc: Optional[DenseVectorClock] = None
    ack_vector: Optional[Dict[Pid, int]] = None
    retransmit: bool = False
    #: Footnote 4 of the paper: "causal protocols can append earlier
    #: 'causal' messages to later dependent messages" instead of delaying.
    #: Under a ``piggyback`` layer, unstable causal predecessors ride along
    #: here — eliminating delivery delay at a bandwidth cost.
    attached: Optional[List["DataMessage"]] = None

    #: The wire size recorded by the first stability buffer that holds this
    #: object (``StabilityLayer.buffer_message``); ``size_bytes()`` returns
    #: it from then on.  Every send-path assignment (``vc``, ``attached``,
    #: ``ack_vector``) happens before the sender buffers, and nothing
    #: writes a field afterwards, so the figure never goes stale.  Only
    #: buffering records it: a size taken earlier (the causal-graph
    #: instrumentation sizes before ``send_down``) is not kept.  A class
    #: attribute without an annotation, so not a dataclass field: eq,
    #: ``fields()`` and the codec never see it, and a copy (a repair copy,
    #: ``dataclasses.replace``, a decoded datagram) starts unsized.  (The
    #: type comment is for mypy, which does not read it as a field either.)
    _size = None  # type: Optional[int]

    def __post_init__(self) -> None:
        # Built once so every holder (buffers, delivery records, hold logs,
        # the causal graph) shares one tuple; ``sender``/``seq`` are never
        # reassigned.  Deliberately not a dataclass field: eq, ``fields()``
        # and the codec see only the wire fields.
        self.msg_id: MsgId = (self.sender, self.seq)

    def repair_copy(self) -> "DataMessage":
        """This message as a retransmission: ``retransmit=True``, and no ack
        vector or attachments.

        No ack vector: the piggybacked ack vector is interpreted as *the
        message sender's* receive state; a peer serving someone else's
        message must not publish its own counts under the original sender's
        identity, or the stability matrix overstates what slow members hold
        and buffers are trimmed while a member still needs repair (found by
        E06 under NAK rotation).  The copy keeps its stamp, which causal
        delivery needs, but a receiver reads no counts off a copy's stamp
        (``DedupRepairLayer.receive_up``), just as it has no ack vector.  No
        attachments: one level is enough, since each attachment's own
        predecessors rode along when *it* was sent.
        """
        return DataMessage(
            group=self.group, sender=self.sender, seq=self.seq,
            payload=self.payload, sent_at=self.sent_at,
            view_id=self.view_id, vc=self.vc, retransmit=True,
        )

    def size_bytes(self) -> int:
        size = self._size
        if size is not None:
            return size
        size = 24  # fixed header: group/sender refs, seq, timestamps
        size += estimate_size(self.payload)
        if self.vc is not None:
            size += self.vc.size_bytes()
        if self.ack_vector is not None:
            size += counts_size(self.ack_vector)
        if self.attached:
            size += sum(m.size_bytes() for m in self.attached)
        return size


@dataclass
class AckGossip(TransportControl):
    """Stability gossip: the sender's contiguous receive counts.

    Broadcast on an ``ack_period`` tick that has news while the sender's
    buffer is empty, and sent to one member as the answer to an
    :class:`AckQuery`; nothing answers it.  A settled member sends none
    (see :mod:`repro.catocs.transport`).  ``ack_vector`` is a snapshot,
    never written after the gossip is sent: the sender re-sends the same
    object while its counts stand, and in the simulator every receiver is
    handed (and may keep) that one dict.
    """

    group: str
    sender: Pid
    ack_vector: Dict[Pid, int]


@dataclass
class AckQuery(AckGossip):
    """Stability gossip from a member that still buffers an unstable
    message: its counts, and a request for every settled peer's counts.

    Broadcast on every ``ack_period`` tick while the sender's buffer holds a
    message; a peer whose buffer is empty answers with a plain
    :class:`AckGossip`.  Priced and absorbed exactly like its base class.
    """


@dataclass
class Nak(TransportControl):
    """Negative acknowledgement: request retransmission of missing seqs."""

    group: str
    requester: Pid
    wanted: List[MsgId]


@dataclass
class OrderToken(OrderingControl):
    """Sequencer-based total order: assigns global indices to message ids."""

    group: str
    sequencer: Pid
    assignments: List[Tuple[int, MsgId]]  # (global index, message id)


@dataclass
class OrderTokenRequest(OrderingControl):
    """Repair request: resend sequencer assignments from ``from_index`` on."""

    group: str
    requester: Pid
    from_index: int


@dataclass
class CommitRequest(OrderingControl):
    """Repair request: resend the agreed priority for ``msg_id``."""

    group: str
    requester: Pid
    msg_id: MsgId


@dataclass
class ProposalRequest(OrderingControl):
    """Repair request from an agreed-order sender to a silent member.

    Carries the data message itself so a member that never received the
    original can both learn the message and answer with a proposal.
    """

    group: str
    requester: Pid
    msg: "DataMessage"


@dataclass
class PriorityProposal(OrderingControl):
    """ISIS agreed-order phase 1 reply: proposed priority for a message."""

    group: str
    proposer: Pid
    msg_id: MsgId
    priority: int


@dataclass
class PriorityCommit(OrderingControl):
    """ISIS agreed-order phase 2: the final, agreed priority."""

    group: str
    sender: Pid
    msg_id: MsgId
    priority: int
    tiebreak: Pid


@dataclass
class ForcedCommit(PriorityCommit):
    """An agreed-order commit made without some member's proposal (the
    sender gave up re-soliciting it).  Ordered exactly like its base class,
    but it proves nothing about who holds the message: a receiver keeps the
    message buffered until it is stable, so the silent member can still get
    it by NAK.  Priced like its base class."""


@dataclass
class Heartbeat(MembershipControl):
    """Failure-detector liveness beacon."""

    group: str
    sender: Pid
    view_id: int


@dataclass
class JoinRequest(MembershipControl):
    """A new process asks to be added to the group's next view."""

    group: str
    joiner: Pid


@dataclass
class LeaveAnnounce(MembershipControl):
    """Voluntary departure: the member asks to be excluded from the next view."""

    group: str
    sender: Pid


@dataclass
class FlushRequest(MembershipControl):
    """View change phase 1: stop sending, report unstable state."""

    group: str
    coordinator: Pid
    new_view_id: int
    proposed_members: Tuple[Pid, ...]


@dataclass
class FlushAck(MembershipControl):
    """View change phase 2: the member's receive state.

    ``ordering_state`` carries the ordering layer's flushable knowledge
    (agreed-order commits, sequencer assignments) so the new view can decide
    the fate of in-flight ordering decisions consistently.
    """

    group: str
    sender: Pid
    new_view_id: int
    received_counts: Dict[Pid, int]
    ordering_state: OrderingState = field(default_factory=dict)


@dataclass
class ViewInstall(MembershipControl):
    """View change phase 3: install the agreed new membership."""

    group: str
    coordinator: Pid
    view_id: int
    members: Tuple[Pid, ...]
    final_counts: Dict[Pid, int] = field(default_factory=dict)
    ordering_state: OrderingState = field(default_factory=dict)


@dataclass
class BatchEnvelope:
    """Same-tick payloads for one destination, coalesced into one packet.

    Produced by the batching layer; the receiver unpacks and dispatches each
    inner payload as if it had arrived on its own.  The wire cost models the
    amortisation: one framing header instead of one per payload.
    """

    sender: Pid
    payloads: List[Any]

    def size_bytes(self) -> int:
        return 16 + sum(estimate_size(p) for p in self.payloads)


@dataclass
class HybridRefetch(OrderingControl):
    """Hybrid-buffering causal layer: a receiver whose bounded buffer
    overflowed asks the retaining sender for the dropped message bodies."""

    group: str
    requester: Pid
    wanted: List[MsgId]


@dataclass
class HybridRefill(OrderingControl):
    """Answer to :class:`HybridRefetch`: full copies from sender retention."""

    group: str
    sender: Pid
    msgs: List[DataMessage]


@dataclass
class HybridAck(OrderingControl):
    """Periodic delivery acknowledgement for sender-side retention trimming.

    ``delivered`` maps each sender pid to how many of its messages the acker
    has delivered; every sender trims its retention to the group-wide
    minimum of its own entry."""

    group: str
    sender: Pid
    delivered: Dict[Pid, int]


def wire_classes() -> Tuple[type, ...]:
    """Every wire-message dataclass defined in this module, sorted by name.

    This is the authoritative enumeration of what can cross the network:
    the runtime codec (:mod:`repro.runtime.codec`) lays out ``DataMessage``
    by hand and registers the rest as records, and the wiring gate in
    ``tests/analysis/test_flowgraph.py`` holds every ``repro.catocs`` send
    to it.
    """
    return tuple(obj for _, obj in sorted(globals().items())
                 if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == __name__)
