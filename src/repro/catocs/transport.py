"""Reliable group transport, split into two composable protocol layers.

Sits between the raw (lossy, reordering) network and the ordering layers:

- :class:`DedupRepairLayer` (``"dedup"``) — **dedup & loss repair.**
  Messages carry per-sender sequence numbers; gaps trigger NAKs after a
  short delay.  Retransmission requests go to the original sender while it
  is believed alive, otherwise to any member whose acknowledged state covers
  the message — the "receiver ... can get copies of the causally referenced
  messages from the sender of the new message even if the original sender
  ... has crashed" assumption of Section 5.

- :class:`StabilityLayer` (``"stability"``) — **atomic-delivery buffering
  and stability tracking.**  Every member retains every data message it has
  received until the message is *stable* (known received by all members),
  exactly the buffering whose growth Section 5 analyses; peak occupancy is
  instrumented per member.  Each outgoing data message piggybacks the
  sender's contiguous receive counts; a periodic gossip covers quiet
  senders.  A :class:`~repro.ordering.matrix.MatrixClock` per member
  maintains the stable frontier (the componentwise minimum over rows) as
  acknowledgements arrive; the buffer is swept only when that frontier moves.
  A settled member is silent, and one that is not asks: a tick is *quiet*
  when the buffer is empty, the counts equal the last ack vector the member
  put on the wire and the frontier has not moved since the previous tick,
  and a quiet tick sends nothing.  Any other tick broadcasts an
  :class:`~repro.catocs.messages.AckQuery` while the buffer holds a
  message, a plain :class:`~repro.catocs.messages.AckGossip` otherwise.  A
  member whose buffer is empty answers a query with a plain ``AckGossip``
  to the querier; nothing answers that, so an exchange is two messages.
  This stays live because an unstable message is always in its sender's
  buffer: the sender queries every tick with counts that reveal it, and
  every member still holding a message queries too.  A peer whose row for
  a settled member is stale is therefore unsettled, and keeps querying
  until that member's answer arrives.  The work is paid per news as well:
  a tick re-sends its last snapshot while neither its type nor a count has
  changed, and a receiver merges a vector only if it differs from the last
  one it merged from that sender.

The two layers are deliberately *coupled through documented peer services*
rather than a pure linear pipeline: the wire format piggybacks ack vectors
on data messages, so on receive the stability matrix must absorb the ack
vector *before* the dedup check (duplicates still carry fresh ack state),
and on send the ack vector must be snapshotted *before* the dedup layer
counts the outgoing message as received.  The dedup layer drives that
choreography, calling the stability layer's service methods at exactly the
points the old monolithic transport did.  A stack may omit the stability
layer (the hybrid-buffering causal stack does); repair then falls back to
whatever retention the remaining layers expose via ``repair_lookup``.

The rest of the codebase reaches these layers through the member's stack:
``member.stack`` for the data, control and membership paths, and
``member.stack.layer("dedup")`` or ``member.stack.layer("stability")`` for
one layer's state and counters.  :class:`GroupTransport` keeps only six
read-only counters, for the benchmark's one remaining reader.

Note what the transport does **not** give: durability.  A sender that
crashes before its message reaches anyone loses the message even though it
may have been delivered locally — the paper's "atomic, but not durable"
deficiency, which experiment E09 demonstrates.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catocs.messages import AckGossip, AckQuery, DataMessage, MsgId, Nak
from repro.catocs.stack import ProtocolLayer, ProtocolStack, register_layer
from repro.ordering.matrix import MatrixClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember


class DedupRepairLayer(ProtocolLayer):
    """Per-sender sequencing: duplicate suppression and NAK gap repair."""

    name = "dedup"
    kind = "transport"

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self.nak_delay = member.nak_delay
        members = list(member.view_members)
        #: contiguous receive count per sender (own sends count as received)
        self.contiguous: Dict[str, int] = {pid: 0 for pid in members}
        #: out-of-order messages received beyond the contiguous point
        self._ahead: Dict[str, Dict[int, DataMessage]] = {}
        #: highest seq seen per sender (for gap detection)
        self._max_seen: Dict[str, int] = {pid: 0 for pid in members}
        #: every id being chased -> how many NAK rounds have asked for it
        self._nak_pending: Dict[MsgId, int] = {}
        self._nak_attempts: Dict[str, int] = {}
        self.retransmissions = 0
        self.naks_sent = 0
        self.duplicates = 0
        #: NAK rounds given up because no live member was known to hold the ids
        self.naks_unroutable = 0
        #: the most NAK rounds any one missing id has taken
        self.nak_rounds_max = 0
        self._stability: Optional["StabilityLayer"] = None

    def on_attached(self) -> None:
        self._stability = self.stack.layer("stability")  # may be None

    # -- data path -----------------------------------------------------------------

    def send_down(self, msg: DataMessage) -> None:
        """Count our own outgoing message as received and publish the fact.

        Runs *after* the stability layer's ``send_down`` snapshotted the ack
        vector (pre-send counts) and buffered the message — the monolith's
        ``broadcast`` order.
        """
        self._note_counts(msg)
        if self._stability is not None:
            self._stability.publish_own_counts(msg.sender, self.contiguous.get(msg.sender, 0))

    def receive_up(self, src: str, msg: DataMessage) -> Optional[DataMessage]:
        """The receive choreography of the old monolithic ``on_data``.

        Stability services are invoked mid-flight (see module docstring):
        ack-vector absorption before the dup check, buffering between the
        dup check and gap chasing, a stability sweep at the end.
        """
        stability = self._stability
        if msg.ack_vector:
            if stability is not None:
                stability.absorb_ack_vector(msg.sender, msg.ack_vector)
            self.learn_existence(msg.ack_vector)
        # The sender necessarily holds its own message.
        if stability is not None:
            stability.note_sender_holds(msg.sender, msg.seq)

        if self._already_have(msg.msg_id):
            self.duplicates += 1
            if stability is not None:
                stability.check_stability()
            return None
        if stability is not None:
            stability.buffer_message(msg)
        self._nak_pending.pop(msg.msg_id, None)  # no longer chased
        self._note_counts(msg)
        if stability is not None:
            stability.publish_own_counts(msg.sender, self.contiguous.get(msg.sender, 0))
        self._check_gaps(msg.sender)
        if stability is not None:
            stability.check_stability()
        return msg

    def on_control(self, src: str, payload: Any) -> Optional[List[DataMessage]]:
        if isinstance(payload, Nak):
            self._serve_nak(payload)
            return []
        return None

    def on_membership_changed(self, members: Sequence[str]) -> None:
        for pid in members:
            if pid not in self.contiguous:
                self.contiguous[pid] = 0
            if pid not in self._max_seen:
                self._max_seen[pid] = 0

    def fast_forward(self, counts: Dict[str, int]) -> None:
        """Count a joiner's skipped history as received: ``counts[pid]`` is
        how much of ``pid``'s stream the view flushed.  Counts only rise, so
        nothing at or below them is ever chased with a NAK."""
        for pid, count in counts.items():
            self.contiguous[pid] = max(self.contiguous.get(pid, 0), count)
            if count > self._max_seen.get(pid, 0):
                self._max_seen[pid] = count

    # -- receive-state bookkeeping ---------------------------------------------

    def _already_have(self, msg_id: MsgId) -> bool:
        sender, seq = msg_id
        if seq <= self.contiguous.get(sender, 0):
            return True
        return seq in self._ahead.get(sender, {})

    def _note_counts(self, msg: DataMessage) -> None:
        sender, seq = msg.msg_id
        if seq > self._max_seen.get(sender, 0):
            self._max_seen[sender] = seq
        if seq == self.contiguous.get(sender, 0) + 1:
            self.contiguous[sender] = seq
            ahead = self._ahead.get(sender, {})
            while self.contiguous[sender] + 1 in ahead:
                self.contiguous[sender] += 1
                del ahead[self.contiguous[sender]]
        else:
            self._ahead.setdefault(sender, {})[seq] = msg

    # -- gap repair ---------------------------------------------------------------

    def learn_existence(self, ack_vector: Dict[str, int]) -> None:
        """Ack vectors reveal messages we never saw (e.g. a dropped *final*
        message from a sender leaves no observable seq gap); chase them."""
        for sender, count in ack_vector.items():
            if count > self._max_seen.get(sender, 0) and sender != self.member.pid:
                self._max_seen[sender] = count
                self._check_gaps(sender)

    def _check_gaps(self, sender: str) -> None:
        pending = self._nak_pending
        fresh = [mid for mid in self._missing(sender) if mid not in pending]
        if not fresh:
            return
        for mid in fresh:
            pending[mid] = 0
        self.member.set_timer(self.nak_delay, self._send_naks, sender)

    def _missing(self, sender: str) -> List[MsgId]:
        contiguous = self.contiguous.get(sender, 0)
        top = self._max_seen.get(sender, 0)
        ahead = self._ahead.get(sender, {})
        return [(sender, s) for s in range(contiguous + 1, top + 1) if s not in ahead]

    def _send_naks(self, sender: str) -> None:
        pending = self._nak_pending
        still_missing = [mid for mid in self._missing(sender) if mid in pending]
        if not still_missing:
            return
        target = self._repair_target(sender, still_missing)
        if target is None:
            # Nobody reachable holds the message: the non-durability window.
            # The chase stops until a new message or ack vector reopens it.
            self.naks_unroutable += 1
            for mid in still_missing:
                del pending[mid]
            return
        self.naks_sent += 1
        self.member.send(
            target,
            Nak(group=self.member.group, requester=self.member.pid, wanted=still_missing),
        )
        for mid in still_missing:
            rounds = pending[mid] = pending[mid] + 1
            if rounds > self.nak_rounds_max:
                self.nak_rounds_max = rounds
        # Re-arm in case the repair itself is lost.
        self.member.set_timer(self.nak_delay * 2, self._send_naks, sender)

    def _repair_target(self, sender: str, wanted: List[MsgId]) -> Optional[str]:
        """Pick who to ask for a retransmission.

        First choice is the original sender; but repeated failures (a dead
        sender our detector hasn't condemned, or a one-way-broken link)
        rotate the request to any member whose acknowledged state covers the
        messages — the Section 5 assumption that "the receiver of a new
        message ... can get copies of the causally referenced messages from
        the sender of the new message even if the original sender ... has
        crashed".  Without a stability layer there is no acknowledged-state
        matrix, so only the original sender can be asked (the hybrid stack's
        sender-retention model).
        """
        attempt = self._nak_attempts.get(sender, 0)
        self._nak_attempts[sender] = attempt + 1
        candidates: List[str] = []
        if self.member.believes_alive(sender):
            candidates.append(sender)
        if self._stability is not None:
            for pid in self.member.view_members:
                if pid in (self.member.pid, sender) or not self.member.believes_alive(pid):
                    continue
                row = self._stability.matrix.row(pid)
                if all(row.get(s, 0) >= q for s, q in wanted):
                    candidates.append(pid)
        if not candidates:
            return None
        return candidates[attempt % len(candidates)]

    def _serve_nak(self, nak: Nak) -> None:
        for msg_id in nak.wanted:
            msg = self.stack.repair_lookup(msg_id)
            if msg is None:
                continue
            # NOTE: no ack_vector on the copy.  The piggybacked ack vector is
            # interpreted as *the message sender's* receive state; a peer
            # serving someone else's message must not publish its own counts
            # under the original sender's identity, or the stability matrix
            # overstates what slow members hold and buffers are trimmed while
            # a member still needs repair (found by E06 under NAK rotation).
            copy = DataMessage(
                group=msg.group,
                sender=msg.sender,
                seq=msg.seq,
                payload=msg.payload,
                sent_at=msg.sent_at,
                view_id=msg.view_id,
                vc=msg.vc,
                retransmit=True,
            )
            self.retransmissions += 1
            self.member.send(nak.requester, copy)

    # -- metrics -------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, int]:
        return {
            "retransmissions": self.retransmissions,
            "naks_sent": self.naks_sent,
            "duplicates": self.duplicates,
            "nak_pending": len(self._nak_pending),
            "naks_unroutable": self.naks_unroutable,
            "nak_rounds_max": self.nak_rounds_max,
        }


class StabilityLayer(ProtocolLayer):
    """Atomic-delivery buffering + matrix-clock stability tracking."""

    name = "stability"
    kind = "transport"

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self.ack_period = member.ack_period
        members = list(member.view_members)
        self.matrix = MatrixClock(members)
        #: atomicity buffer: every known-unstable message we hold a copy of
        self.buffer: Dict[MsgId, DataMessage] = {}
        #: what each buffered entry added to ``_buffered_bytes``: a message
        #: is sized once, on entry, and trimmed by exactly that amount
        self._entry_bytes: Dict[MsgId, int] = {}
        self._buffered_bytes = 0
        #: per sender, a heap of (seq, arrival, msg_id) over the buffered
        #: ids: a sweep reads the heads instead of the whole buffer, and
        #: ``arrival`` restores buffer order among what it releases
        self._held: Dict[str, List[Tuple[int, int, MsgId]]] = defaultdict(list)
        self._arrivals = 0
        #: ``matrix.moves`` as of the last sweep; ``None`` forces the next
        #: ``check_stability`` to sweep
        self._swept_at: Optional[int] = None
        self.peak_buffered = 0
        self.peak_buffered_bytes = 0
        #: ticks that broadcast, quiet ticks (silent), and queries answered
        self.gossip_sent = 0
        self.gossip_quiet = 0
        self.gossip_answers = 0
        self.stable_hooks: List[Callable[[MsgId], None]] = []
        self._dedup: Optional[DedupRepairLayer] = None
        #: the last gossip broadcast, re-sent as it is while neither its
        #: type nor a count has changed
        self._last_gossip: Optional[AckGossip] = None
        #: the last ack vector put on the wire, by gossip, answer or piggyback
        self._acked: Optional[Dict[str, int]] = None
        #: ``matrix.moves`` as the previous tick saw it; ``None`` makes the
        #: next tick not quiet
        self._ticked_moves: Optional[int] = None
        #: per sender, the last gossip vector merged into the *current*
        #: matrix: merging it again changes nothing (rows and ``_max_seen``
        #: only grow), so a repeat goes straight to ``check_stability``
        self._absorbed: Dict[str, Dict[str, int]] = {}

        if self.ack_period > 0:
            member.set_timer(self.ack_period, self._gossip_tick)

    def on_attached(self) -> None:
        self._dedup = self.stack.layer("dedup")

    def _counts(self) -> Dict[str, int]:
        """The member's contiguous receive counts (owned by the dedup layer)."""
        return self._dedup.contiguous if self._dedup is not None else {}

    # -- data path -----------------------------------------------------------------

    def send_down(self, msg: DataMessage) -> None:
        """Piggyback the pre-send ack vector; buffer our own message.

        Runs *before* the dedup layer's ``send_down`` (the stack pushes top
        to bottom), so the snapshot excludes the message being sent — as in
        the monolith, where the snapshot preceded ``_note_received``.
        """
        msg.ack_vector = self._acked = dict(self._counts())
        self.buffer_message(msg)

    def on_control(self, src: str, payload: Any) -> Optional[List[DataMessage]]:
        if isinstance(payload, AckGossip):
            vector = payload.ack_vector
            seen = self._absorbed.get(payload.sender)
            if seen is not vector and seen != vector:
                self._absorbed[payload.sender] = vector
                self.absorb_ack_vector(payload.sender, vector)
                if self._dedup is not None:
                    self._dedup.learn_existence(vector)
            self.check_stability()
            if isinstance(payload, AckQuery):
                self._answer(payload.sender)
            return []
        return None

    def _answer(self, querier: str) -> None:
        """Send a member that still buffers a message this member's counts,
        if its own buffer is empty.  The answer is a plain ``AckGossip``,
        which nothing answers: a query costs at most one reply per peer."""
        if self.buffer or querier not in self.member.view_members:
            return
        answer = AckGossip(
            group=self.member.group,
            sender=self.member.pid,
            ack_vector=dict(self._counts()),
        )
        self._acked = answer.ack_vector
        self.gossip_answers += 1
        self.member.send(querier, answer)

    def on_membership_changed(self, members: Sequence[str]) -> None:
        """Rebuild stability tracking after a view change.

        Rows for departed members no longer hold back the stable frontier.
        Surviving members' rows restart from our own first-hand knowledge
        and re-converge through piggybacked acks and gossip.
        """
        self.matrix = MatrixClock(members)
        self.matrix.update_row(self.member.pid, self._counts())
        self._absorbed.clear()  # absorbed by the old matrix, not this one
        self._swept_at = None  # a new matrix: its frontier is not the swept one
        self._ticked_moves = None  # and its moves count from 0: not quiet
        self.check_stability()

    # -- peer services (called by the dedup layer mid-choreography) ----------------

    def absorb_ack_vector(self, sender: str, ack_vector: Dict[str, int]) -> None:
        self.matrix.update_row(sender, ack_vector)

    def note_sender_holds(self, sender: str, seq: int) -> None:
        self.matrix.set_component(sender, sender, seq)

    def buffer_message(self, msg: DataMessage) -> None:
        mid = msg.msg_id
        size = msg.size_bytes()
        held = self._entry_bytes.get(mid)
        if held is None:
            held = 0
            sender, seq = mid
            self._arrivals += 1
            heappush(self._held[sender], (seq, self._arrivals, mid))
            if self.matrix.stable(sender, seq):
                # Buffered under the frontier (never through receive_up:
                # own row <= contiguous < seq): the next check_stability
                # must sweep though nothing moved.
                self._swept_at = None
        # Re-buffering under an existing id replaces that entry's bytes.
        self._buffered_bytes += size - held
        self._entry_bytes[mid] = size
        self.buffer[mid] = msg
        if len(self.buffer) > self.peak_buffered:
            self.peak_buffered = len(self.buffer)
        if self._buffered_bytes > self.peak_buffered_bytes:
            self.peak_buffered_bytes = self._buffered_bytes

    def publish_own_counts(self, sender: str, count: int) -> None:
        """Our own receive state is first-hand knowledge for the matrix:
        ``count`` is ``contiguous[sender]``, the one entry a send or
        receipt can have moved, so the own row mirrors the dedup layer's
        counts component by component."""
        self.matrix.set_component(self.member.pid, sender, count)

    def repair_lookup(self, msg_id: MsgId) -> Optional[DataMessage]:
        return self.buffer.get(msg_id)

    # -- stability -----------------------------------------------------------------

    def _gossip_tick(self) -> None:
        """Broadcast the counts, unless this tick is quiet.

        Quiet: nothing buffered, the counts are the last vector on the wire
        and the frontier has not moved since the previous tick; a quiet tick
        sends nothing.  Otherwise a member that buffers a message sends an
        ``AckQuery``, one that does not a plain ``AckGossip``.  A wire ack
        vector is immutable once sent, so the last snapshot is re-sent as
        it is while neither its type nor a count has changed.  The timer
        fires every period either way."""
        counts = self._counts()
        moves = self.matrix.moves
        if self.buffer or counts != self._acked or moves != self._ticked_moves:
            self.gossip_sent += 1
            if self.buffer:
                query = self._last_gossip
                if type(query) is not AckQuery or query.ack_vector != counts:
                    query = AckQuery(
                        group=self.member.group,
                        sender=self.member.pid,
                        ack_vector=dict(counts),
                    )
                self._broadcast(query)
            else:
                gossip = self._last_gossip
                if type(gossip) is not AckGossip or gossip.ack_vector != counts:
                    gossip = AckGossip(
                        group=self.member.group,
                        sender=self.member.pid,
                        ack_vector=dict(counts),
                    )
                self._broadcast(gossip)
        else:
            self.gossip_quiet += 1
        self._ticked_moves = moves
        self.member.set_timer(self.ack_period, self._gossip_tick)

    def _broadcast(self, gossip: AckGossip) -> None:
        self._last_gossip = gossip
        self._acked = gossip.ack_vector
        self.member.send_peers(gossip)

    def check_stability(self) -> None:
        """Release every buffered message the stable frontier covers, in
        buffer order.  Returns at once while the frontier stands where the
        last sweep left it."""
        moves = self.matrix.moves
        if moves == self._swept_at:
            return
        self._swept_at = moves
        stable = self.matrix.min_vector()
        newly_stable = []
        for sender, heap in self._held.items():
            covered = stable.get(sender, 0)
            while heap and heap[0][0] <= covered:
                newly_stable.append(heappop(heap)[1:])
        newly_stable.sort()
        for _, mid in newly_stable:
            del self.buffer[mid]
            self._buffered_bytes -= self._entry_bytes.pop(mid)
            for hook in self.stable_hooks:
                hook(mid)

    # -- metrics -------------------------------------------------------------------

    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    def layer_metrics(self) -> Dict[str, int]:
        return {
            "buffered": len(self.buffer),
            "buffered_bytes": self.buffered_bytes(),
            "peak_buffered": self.peak_buffered,
            "peak_buffered_bytes": self.peak_buffered_bytes,
            "gossip_sent": self.gossip_sent,
            "gossip_quiet": self.gossip_quiet,
            "gossip_answers": self.gossip_answers,
        }


register_layer(DedupRepairLayer)
register_layer(StabilityLayer)


class GroupTransport:
    """The six counters perfbench's ``stack_counts`` reads as
    ``member.transport.<counter>``: each is its layer's counter, or 0 when
    the stack has no such layer.  Nothing else reads them."""

    __slots__ = ("_dedup", "_stability")

    def __init__(self, stack: ProtocolStack) -> None:
        self._dedup = stack.layer("dedup")
        self._stability = stack.layer("stability")

    naks_sent = property(lambda self: getattr(self._dedup, "naks_sent", 0))
    retransmissions = property(lambda self: getattr(self._dedup, "retransmissions", 0))
    duplicates = property(lambda self: getattr(self._dedup, "duplicates", 0))
    gossip_sent = property(lambda self: getattr(self._stability, "gossip_sent", 0))
    peak_buffered = property(lambda self: getattr(self._stability, "peak_buffered", 0))
    peak_buffered_bytes = property(
        lambda self: getattr(self._stability, "peak_buffered_bytes", 0))
