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

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ordering.dense import DenseVectorClock
from repro.sim.network import counts_size, estimate_size

MsgId = Tuple[str, int]  # (sender pid, per-sender sequence number)

_unique = itertools.count()


def fresh_tag() -> int:
    """Globally unique small integer, for control-message identification."""
    return next(_unique)


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
    counts for stability tracking.
    """

    group: str
    sender: str
    seq: int
    payload: Any
    sent_at: float
    view_id: int = 0
    vc: Optional[DenseVectorClock] = None
    ack_vector: Optional[Dict[str, int]] = None
    retransmit: bool = False
    #: Footnote 4 of the paper: "causal protocols can append earlier
    #: 'causal' messages to later dependent messages" instead of delaying.
    #: When the piggyback option is on, unstable causal predecessors ride
    #: along here — eliminating delivery delay at a bandwidth cost.
    attached: Optional[List["DataMessage"]] = None

    def __post_init__(self) -> None:
        # Built once so every holder (buffers, delivery records, hold logs,
        # the causal graph) shares one tuple; ``sender``/``seq`` are never
        # reassigned.  Deliberately not a dataclass field: eq, ``fields()``
        # and the codec see only the wire fields.
        self.msg_id: MsgId = (self.sender, self.seq)

    def size_bytes(self) -> int:
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
    sender: str
    ack_vector: Dict[str, int]


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
    requester: str
    wanted: List[MsgId]


@dataclass
class OrderToken(OrderingControl):
    """Sequencer-based total order: assigns global indices to message ids."""

    group: str
    sequencer: str
    assignments: List[Tuple[int, MsgId]]  # (global index, message id)


@dataclass
class OrderTokenRequest(OrderingControl):
    """Repair request: resend sequencer assignments from ``from_index`` on."""

    group: str
    requester: str
    from_index: int


@dataclass
class CommitRequest(OrderingControl):
    """Repair request: resend the agreed priority for ``msg_id``."""

    group: str
    requester: str
    msg_id: MsgId


@dataclass
class ProposalRequest(OrderingControl):
    """Repair request from an agreed-order sender to a silent member.

    Carries the data message itself so a member that never received the
    original can both learn the message and answer with a proposal.
    """

    group: str
    requester: str
    msg: "DataMessage"


@dataclass
class PriorityProposal(OrderingControl):
    """ISIS agreed-order phase 1 reply: proposed priority for a message."""

    group: str
    proposer: str
    msg_id: MsgId
    priority: int


@dataclass
class PriorityCommit(OrderingControl):
    """ISIS agreed-order phase 2: the final, agreed priority."""

    group: str
    sender: str
    msg_id: MsgId
    priority: int
    tiebreak: str


@dataclass
class Heartbeat(MembershipControl):
    """Failure-detector liveness beacon."""

    group: str
    sender: str
    view_id: int


@dataclass
class JoinRequest(MembershipControl):
    """A new process asks to be added to the group's next view."""

    group: str
    joiner: str


@dataclass
class LeaveAnnounce(MembershipControl):
    """Voluntary departure: the member asks to be excluded from the next view."""

    group: str
    sender: str


@dataclass
class FlushRequest(MembershipControl):
    """View change phase 1: stop sending, report unstable state."""

    group: str
    coordinator: str
    new_view_id: int
    proposed_members: Tuple[str, ...]


@dataclass
class FlushAck(MembershipControl):
    """View change phase 2: member's receive state + its unstable messages.

    ``ordering_state`` carries the ordering layer's flushable knowledge
    (agreed-order commits, sequencer assignments) so the new view can decide
    the fate of in-flight ordering decisions consistently.
    """

    group: str
    sender: str
    new_view_id: int
    received_counts: Dict[str, int]
    unstable: List[DataMessage] = field(default_factory=list)
    ordering_state: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ViewInstall(MembershipControl):
    """View change phase 3: install the agreed new membership."""

    group: str
    coordinator: str
    view_id: int
    members: Tuple[str, ...]
    final_counts: Dict[str, int] = field(default_factory=dict)
    ordering_state: Dict[str, Any] = field(default_factory=dict)


@dataclass
class BatchEnvelope:
    """Same-tick payloads for one destination, coalesced into one packet.

    Produced by the batching layer; the receiver unpacks and dispatches each
    inner payload as if it had arrived on its own.  The wire cost models the
    amortisation: one framing header instead of one per payload.
    """

    sender: str
    payloads: List[Any]

    def size_bytes(self) -> int:
        return 16 + sum(estimate_size(p) for p in self.payloads)


@dataclass
class HybridRefetch(OrderingControl):
    """Hybrid-buffering causal layer: a receiver whose bounded buffer
    overflowed asks the retaining sender for the dropped message bodies."""

    group: str
    requester: str
    wanted: List[MsgId]


@dataclass
class HybridRefill(OrderingControl):
    """Answer to :class:`HybridRefetch`: full copies from sender retention."""

    group: str
    sender: str
    msgs: List[DataMessage]


@dataclass
class HybridAck(OrderingControl):
    """Periodic delivery acknowledgement for sender-side retention trimming.

    ``delivered`` maps each sender pid to how many of its messages the acker
    has delivered; every sender trims its retention to the group-wide
    minimum of its own entry."""

    group: str
    sender: str
    delivered: Dict[str, int]


def wire_classes() -> Tuple[type, ...]:
    """Every wire-message dataclass defined in this module, sorted by name.

    This is the authoritative enumeration of what can cross the network:
    the runtime codec (:mod:`repro.runtime.codec`) registers exactly this
    set plus the vector-clock types, and the PROTO005 analysis rule holds
    the codec registry to it.
    """
    import dataclasses as _dataclasses
    import sys as _sys

    module = _sys.modules[__name__]
    return tuple(
        obj
        for name in sorted(vars(module))
        if isinstance(obj := getattr(module, name), type)
        and _dataclasses.is_dataclass(obj)
        and obj.__module__ == __name__
    )
