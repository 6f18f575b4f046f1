"""Hybrid-buffering causal delivery (sender retention + bounded receiver).

Almeida's *Space-Optimal Causal Delivery through Hybrid Buffering* observes
that BSS-style causal delivery pays for unbounded **receiver-side** delay
queues, while the sender already holds every message it sent.  The hybrid
scheme bounds the receiver's buffer and shifts the long-tail storage to the
sender:

- **Receiver side** — the causal delay queue is capped at
  :attr:`HybridCausalOrdering.buffer_bound` messages.  A message that is not
  yet deliverable when the queue is full is *dropped to a stub* — only its
  header (id + vector clock) is kept.  Once the stub's causal dependencies
  clear, the receiver refetches the body from the retaining sender
  (:class:`~repro.catocs.messages.HybridRefetch` /
  :class:`~repro.catocs.messages.HybridRefill`), with a retry timer for lost
  control messages.

- **Sender side** — every member retains its own multicasts until all view
  members have acknowledged delivery (periodic
  :class:`~repro.catocs.messages.HybridAck` carrying delivered counts).
  The sender also periodically re-sends retained messages that a live
  member has not acknowledged — sender-driven recovery, which is what lets
  the hybrid stack (``"dedup|hybrid-causal"``) drop the stability layer and
  its all-to-all gossip entirely: data messages carry no ack vector, and
  there is no matrix or group-wide atomicity buffer.

Trade-offs measured by the tests and bench workloads: bounded receiver
memory and no stability matrix, against refetch round-trips on overflow and
retention-resend traffic under loss.  Repair for *other* senders' messages
can only be served by the original sender (no stability matrix to find
covering peers), so a crashed sender's unacknowledged messages are lost —
the same atomic-but-not-durable window the paper describes, just relocated.

Select it anywhere an ordering is accepted: ``ordering="hybrid-causal"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from repro.catocs.messages import (
    DataMessage,
    HybridAck,
    HybridRefetch,
    HybridRefill,
    MsgId,
)
from repro.catocs.ordering_layers import CausalOrdering
from repro.catocs.stack import register_layer

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember


class HybridCausalOrdering(CausalOrdering):
    """BSS causal delivery with hybrid (sender/receiver) buffering."""

    name = "hybrid-causal"

    #: Receiver delay-queue capacity (messages awaiting dependencies).
    buffer_bound = 16
    #: How often a member acknowledges its delivered counts to the group.
    ack_interval = 25.0
    #: Sender-side recovery cadence: retained-but-unacked messages are
    #: re-sent to the members still missing them.
    resend_period = 40.0
    #: Retry delay for an unanswered refetch.
    refetch_retry = 30.0
    #: Per-peer cap on retention re-sends in one recovery tick.
    resend_burst = 8

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        #: sender-side retention: our own multicasts, until all-acked
        self._retained: Dict[MsgId, DataMessage] = {}
        #: overflowed messages, header only, awaiting refetch
        self._stubs: Dict[MsgId, DataMessage] = {}
        self._requested: Set[MsgId] = set()
        self._refetch_armed = False
        #: peer pid -> the delivered counts it last acknowledged
        self._acked: Dict[str, Dict[str, int]] = {}
        self._last_ack_sent: Dict[str, int] = {}

        self.overflow_drops = 0
        self.refetches_sent = 0
        self.refills_served = 0
        self.retention_resends = 0
        self.acks_sent = 0
        self.peak_retained = 0
        member.set_timer(self.ack_interval, self._ack_tick)
        member.set_timer(self.resend_period, self._resend_tick)

    # -- sender side -------------------------------------------------------------

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        self._retained[msg.msg_id] = msg
        if len(self._retained) > self.peak_retained:
            self.peak_retained = len(self._retained)
        return super().accept_local(msg)

    def repair_lookup(self, msg_id: MsgId) -> Optional[DataMessage]:
        """Serve the dedup layer's NAK repair from sender retention."""
        return self._retained.get(msg_id)

    def _trim_retained(self) -> None:
        peers = [p for p in self.member.view_members if p != self.member.pid]
        if not peers:
            self._retained.clear()
            return
        floor = min(
            self._acked.get(peer, {}).get(self.member.pid, 0) for peer in peers
        )
        for mid in [m for m in self._retained if m[1] <= floor]:
            del self._retained[mid]

    def _resend_tick(self) -> None:
        """Sender-driven recovery: re-send retained messages a live member
        has not yet acknowledged (replaces NAK-by-gap for *final* messages,
        which leave no observable seq gap without an ack vector)."""
        now = self.member.sim.now
        horizon = now - self.resend_period
        for peer in self.member.view_members:
            if peer == self.member.pid or not self.member.believes_alive(peer):
                continue
            acked = self._acked.get(peer, {}).get(self.member.pid, 0)
            overdue = sorted(
                mid for mid, msg in self._retained.items()
                if mid[1] > acked and msg.sent_at <= horizon
            )
            for mid in overdue[: self.resend_burst]:
                msg = self._retained[mid]
                self.retention_resends += 1
                self.member.send(
                    peer,
                    DataMessage(
                        group=msg.group, sender=msg.sender, seq=msg.seq,
                        payload=msg.payload, sent_at=msg.sent_at,
                        view_id=msg.view_id, vc=msg.vc, retransmit=True,
                    ),
                )
        self.member.set_timer(self.resend_period, self._resend_tick)

    def _ack_tick(self) -> None:
        counts = {
            pid: count for pid, count in self.delivered.as_dict().items() if count
        }
        if counts != self._last_ack_sent:
            self._last_ack_sent = dict(counts)
            self.acks_sent += 1
            ack = HybridAck(
                group=self.member.group, sender=self.member.pid, delivered=counts
            )
            self.member.broadcast_control(ack)
        self.member.set_timer(self.ack_interval, self._ack_tick)

    # -- receiver side -----------------------------------------------------------

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        if not self._deliverable(msg) and len(self._queue) >= self.buffer_bound:
            # Bounded buffer full: keep the header only.  The body is safe
            # in the sender's retention; refetch once dependencies clear.
            self.overflow_drops += 1
            stub = DataMessage(
                group=msg.group, sender=msg.sender, seq=msg.seq,
                payload=None, sent_at=msg.sent_at, view_id=msg.view_id,
                vc=msg.vc,
            )
            self._hold(stub)  # residency accounting spans stub + refill
            self._stubs[stub.msg_id] = stub
            self._maybe_refetch()
            return []
        return super().insert(msg)

    def _commit_release(self, msg: DataMessage) -> DataMessage:
        released = super()._commit_release(msg)
        if self._stubs:
            self._maybe_refetch()
        return released

    def _maybe_refetch(self) -> None:
        by_sender: Dict[str, List[MsgId]] = {}
        stale: List[MsgId] = []
        for mid, stub in self._stubs.items():
            assert stub.vc is not None
            if stub.vc[stub.sender] <= self.delivered[stub.sender]:
                stale.append(mid)  # forgiven/fast-forwarded past; drop
                continue
            if mid in self._requested or not self._deliverable(stub):
                continue
            by_sender.setdefault(stub.sender, []).append(mid)
        for mid in stale:
            self._release(self._stubs.pop(mid))
            self._requested.discard(mid)
        for sender, wanted in sorted(by_sender.items()):
            if not self.member.believes_alive(sender):
                continue
            self.refetches_sent += 1
            self.member.send_control(
                sender,
                HybridRefetch(
                    group=self.member.group,
                    requester=self.member.pid,
                    wanted=sorted(wanted),
                ),
            )
            self._requested.update(wanted)
        if self._stubs and not self._refetch_armed:
            self._refetch_armed = True
            self.member.set_timer(self.refetch_retry, self._refetch_tick)

    def _refetch_tick(self) -> None:
        self._refetch_armed = False
        if not self._stubs:
            return
        self._requested.clear()  # ask again: request or refill was lost
        self._maybe_refetch()

    # -- control traffic ----------------------------------------------------------

    def on_control(self, src: str, payload: Any) -> List[DataMessage]:
        if isinstance(payload, HybridRefetch):
            refills = []
            for mid in payload.wanted:
                msg = self._retained.get(mid)
                if msg is not None:
                    refills.append(msg)
            if refills:
                self.refills_served += len(refills)
                self.member.send_control(
                    payload.requester,
                    HybridRefill(
                        group=self.member.group,
                        sender=self.member.pid,
                        msgs=[
                            DataMessage(
                                group=m.group, sender=m.sender, seq=m.seq,
                                payload=m.payload, sent_at=m.sent_at,
                                view_id=m.view_id, vc=m.vc, retransmit=True,
                            )
                            for m in refills
                        ],
                    ),
                )
            return []
        if isinstance(payload, HybridRefill):
            for msg in payload.msgs:
                stub = self._stubs.pop(msg.msg_id, None)
                self._requested.discard(msg.msg_id)
                if stub is None:
                    continue  # duplicate refill (retry raced the answer)
                assert msg.vc is not None
                if msg.vc[msg.sender] <= self.delivered[msg.sender]:
                    self._release(stub)  # delivered meanwhile via other path
                    continue
                super().insert(msg)  # _hold keeps the stub's start time
            return []
        if isinstance(payload, HybridAck):
            self._acked[payload.sender] = dict(payload.delivered)
            self._trim_retained()
            return []
        return super().on_control(src, payload)

    # -- observability -------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Any]:
        data = super().layer_metrics()
        data.update(
            {
                "retained": len(self._retained),
                "peak_retained": self.peak_retained,
                "stubs": len(self._stubs),
                "overflow_drops": self.overflow_drops,
                "refetches_sent": self.refetches_sent,
                "refills_served": self.refills_served,
                "retention_resends": self.retention_resends,
                "acks_sent": self.acks_sent,
            }
        )
        return data


register_layer(HybridCausalOrdering)
