"""Reliable group transport, split into composable protocol layers.

Sits between the raw (lossy, reordering) network and the ordering layers:

- :class:`DedupRepairLayer` (``"dedup"``) — **dedup & loss repair.**
  Messages carry per-sender sequence numbers; gaps trigger NAKs after a
  short delay.  Retransmission requests go to the original sender while it
  is believed alive, otherwise to any member whose acknowledged state covers
  the message — the "receiver ... can get copies of the causally referenced
  messages from the sender of the new message even if the original sender
  ... has crashed" assumption of Section 5.

- :class:`PiggybackLayer` (``"piggyback"``) — the Footnote 4 alternative
  to delaying: each outgoing data message carries copies of the unstable
  messages it causally depends on.

- :class:`StabilityLayer` (``"stability"``) — **atomic-delivery buffering
  and stability tracking.**  Every member retains every data message it has
  received until the message is *stable* (known received by all members),
  exactly the buffering whose growth Section 5 analyses; peak occupancy is
  instrumented per member.  Each outgoing data message piggybacks the
  sender's contiguous receive counts; a stamped one carries only the
  counts its vector clock does not (the stamp is the ack), so a loss-free
  causal message carries none.  A periodic gossip covers quiet senders.
  A :class:`~repro.ordering.matrix.MatrixClock` per member
  maintains the stable frontier (the componentwise minimum over rows) as
  acknowledgements arrive; the buffer is swept only when that frontier
  moves, and then only the senders whose column moved.
  A settled member is silent, and one that is not asks: a tick is *quiet*
  when the buffer is empty, the counts equal the last ack vector the member
  put on the wire and the frontier has not moved since the previous tick,
  and a quiet tick sends nothing.  Any other tick broadcasts an
  :class:`~repro.catocs.messages.AckQuery` while the buffer holds a
  message, a plain :class:`~repro.catocs.messages.AckGossip` otherwise.  A
  member whose buffer is empty answers a query with a plain ``AckGossip``
  to the querier; nothing answers that, so an exchange is two messages.
  This stays live because an unstable message is always in its sender's
  buffer, unless the ordering layer proved every member holds it and
  :meth:`StabilityLayer.release` dropped it (then no one needs it): the
  sender queries every tick with counts that reveal it, and every member
  still holding a message queries too.  A peer whose row for
  a settled member is stale is therefore unsettled, and keeps querying
  until that member's answer arrives.  The work is paid per news as well:
  a tick re-sends its last snapshot while neither its type nor a count has
  changed, and a receiver merges a vector only if it differs from the last
  one it merged from that sender.

The two layers are deliberately *coupled through documented peer services*
rather than a pure linear pipeline: the wire format piggybacks ack vectors
on data messages, so on receive the stability matrix must absorb the ack
vector, or the counts a stamp implies, *before* the dedup check
(duplicates still carry fresh ack state), and on send the ack vector must
be snapshotted *before* the dedup layer counts the outgoing message as
received.  The dedup layer drives that choreography, calling the stability
layer's service methods at exactly the points the old monolithic transport
did.  A stack may omit the stability
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
from heapq import heapify, heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.catocs.messages import AckGossip, AckQuery, DataMessage, MsgId, Nak
from repro.catocs.stack import ProtocolLayer, ProtocolStack, register_layer
from repro.ordering.dense import DenseVectorClock
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
        sender, acks, vc = msg.sender, msg.ack_vector, msg.vc
        # A stamp is its sender's receive counts, but where ``acks`` names
        # a count (StabilityLayer.send_down); a repair copy's is not read.
        stamped = stability is not None and vc is not None and not msg.retransmit
        if stamped and acks is None:
            # The common case: the stamp, read in place.  Its own entry is
            # seq, where the sender had received seq - 1: learn_existence is
            # told so, and in the matrix it records that the sender holds
            # its own message.
            stability.absorb_ack_vector(sender, vc)
            self.learn_existence(vc, sender)
        else:
            if stamped:
                acks = dict(vc.items()) | {sender: msg.seq - 1} | acks
            if acks:
                if stability is not None:
                    stability.absorb_ack_vector(sender, acks)
                self.learn_existence(acks)
            # The sender necessarily holds its own message.
            if stability is not None:
                stability.note_sender_holds(sender, msg.seq)

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

    def on_control(self, src: str, payload: Any) -> None:
        if isinstance(payload, Nak):
            self._serve_nak(payload)

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

    def learn_existence(self, ack_vector: Union[Mapping[str, int], DenseVectorClock],
                        carrier: Optional[str] = None) -> None:
        """Ack vectors reveal messages we never saw (e.g. a dropped *final*
        message from a sender leaves no observable seq gap); chase them.

        ``ack_vector`` may be the stamp of a message from ``carrier``: its
        own entry there is the message in hand, so it reveals one less."""
        max_seen, me = self._max_seen, self.member.pid
        for sender, count in ack_vector.items():
            if count > max_seen.get(sender, 0) and sender != me:
                if sender == carrier:
                    count -= 1
                    if count <= max_seen.get(sender, 0):
                        continue
                max_seen[sender] = count
                self._check_gaps(sender)

    def _check_gaps(self, sender: str) -> None:
        if self._max_seen.get(sender, 0) <= self.contiguous.get(sender, 0):
            return  # nothing is missing: the usual call, for a receipt's own sender
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
            matrix = self._stability.matrix
            for pid in self.member.view_members:
                if pid in (self.member.pid, sender) or not self.member.believes_alive(pid):
                    continue
                if matrix.covers(pid, wanted):
                    candidates.append(pid)
        if not candidates:
            return None
        return candidates[attempt % len(candidates)]

    def _serve_nak(self, nak: Nak) -> None:
        for msg_id in nak.wanted:
            msg = self.stack.repair_lookup(msg_id)
            if msg is None:
                continue
            self.retransmissions += 1
            self.member.send(nak.requester, msg.repair_copy())

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
    stable = True

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
        #: ``arrival`` restores buffer order among what it releases.  The
        #: heaps hold exactly the buffered ids: :meth:`release` removes its
        #: id's entry too
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

        A stamped message carries only the counts its stamp does not: a
        receiver reads the stamp as the sender's counts, its own entry as
        ``seq - 1`` (``DedupRepairLayer.receive_up``), so ``ack_vector``
        holds just the entries that differ from that reading, or is
        ``None``.  Causal delivery is FIFO per sender, so a stamp entry is a
        delivered count, at most the received one; the two differ only while
        a received message waits in the causal queue, and loss-free
        ``ack_vector`` is ``None``.  ``_acked`` keeps the whole snapshot.
        """
        counts = self._acked = dict(self._counts())
        vc = msg.vc
        if vc is None:
            msg.ack_vector = counts
        else:
            stamp = dict(vc.items())
            stamp[msg.sender] = msg.seq - 1
            msg.ack_vector = None if stamp == counts else {
                pid: count for pid, count in counts.items()
                if count != stamp.get(pid, 0)} or None
        self.buffer_message(msg)

    def on_control(self, src: str, payload: Any) -> None:
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

    def absorb_ack_vector(self, sender: str,
                          ack_vector: Union[Mapping[str, int], DenseVectorClock]) -> None:
        self.matrix.update_row(sender, ack_vector)

    def note_sender_holds(self, sender: str, seq: int) -> None:
        self.matrix.set_component(sender, sender, seq)

    def buffer_message(self, msg: DataMessage) -> None:
        mid = msg.msg_id
        size = msg._size
        if size is None:
            # The first buffer to hold this object sizes it for every later
            # holder (see ``DataMessage._size``).
            size = msg._size = msg.size_bytes()
        held = self._entry_bytes.get(mid)
        if held is None:
            held = 0
            sender, seq = mid
            self._arrivals += 1
            heappush(self._held[sender], (seq, self._arrivals, mid))
            if seq <= self.matrix.frontier.get(sender, 0):
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
        last sweep left it.  Otherwise only the heaps of the columns that
        moved since (``matrix.moved``) are read, unless ``_swept_at`` is
        ``None``: a rebuilt matrix, or a message buffered under the
        frontier, and then every heap is."""
        matrix = self.matrix
        moves = matrix.moves
        if moves == self._swept_at:
            return
        held = self._held
        senders = held if self._swept_at is None else matrix.moved
        self._swept_at = moves
        frontier = matrix.frontier
        newly_stable = []
        for sender in senders:
            heap = held.get(sender)
            if heap:
                covered = frontier.get(sender, 0)
                while heap and heap[0][0] <= covered:
                    newly_stable.append(heappop(heap)[1:])
        matrix.moved.clear()
        if len(newly_stable) > 1:
            newly_stable.sort()
        for _, mid in newly_stable:
            del self.buffer[mid]
            self._buffered_bytes -= self._entry_bytes.pop(mid)
            for hook in self.stable_hooks:
                hook(mid)

    def release(self, msg_id: MsgId) -> None:
        """Drop ``msg_id`` ahead of the frontier: the ordering layer proved
        that every member holds it (``total-agreed`` applied a commit made
        with every member's proposal).  Only that message goes: no matrix
        row is written, so the frontier, the quiet-tick test and repair
        routing see what they saw before.  Its heap entry goes with it, so
        the sweep never meets a released id.  The dedup layer counts the
        message as received, so no later copy is buffered again."""
        if msg_id not in self.buffer:
            return
        heap = self._held[msg_id[0]]
        heap.remove(next(entry for entry in heap if entry[2] == msg_id))
        heapify(heap)
        del self.buffer[msg_id]
        self._buffered_bytes -= self._entry_bytes.pop(msg_id)
        for hook in self.stable_hooks:
            hook(msg_id)

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


class PiggybackLayer(ProtocolLayer):
    """Footnote 4: attach unstable causal predecessors instead of delaying.

    "As an alternative to delaying dependent messages, causal protocols can
    append earlier 'causal' messages to later dependent messages."  Every
    outgoing data message carries a :meth:`~DataMessage.repair_copy` of each
    stability-buffered message its vector clock covers.  One level is
    enough: a receiver ingests a message's attachments before the message
    itself, which satisfies the carrier's direct dependencies, and each
    attachment's own dependencies rode along when *it* was sent.

    It sits above ``stability`` (``"dedup|stability|piggyback|causal"``):
    the stack pushes top to bottom, so the attachments are on the carrier
    before the stability layer buffers and sizes it, and the carrier is not
    yet in the buffer it scans; a spec with it below ``stability`` is
    refused when the stack is built.  The receive side needs no layer.
    """

    name = "piggyback"
    kind = "transport"

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self.piggybacked_bytes = 0
        self._stability: Optional[StabilityLayer] = None

    def on_attached(self) -> None:
        stability = self._stability = self.stack.layer("stability")
        layers = self.stack.layers
        if stability is not None and layers.index(self) < layers.index(stability):
            # The stability layer buffers, and so sizes for good, a message
            # that must already carry its attachments.
            raise ValueError(f"piggyback must sit above stability: {self.stack.spec!r}")

    def send_down(self, msg: DataMessage) -> None:
        vc = msg.vc
        stability = self._stability
        if vc is None or stability is None:
            return
        msg.attached = [m.repair_copy() for m in stability.buffer.values()
                        if m.seq <= vc[m.sender]]
        self.piggybacked_bytes += sum(m.size_bytes() for m in msg.attached)

    def layer_metrics(self) -> Dict[str, int]:
        return {"piggybacked_bytes": self.piggybacked_bytes}


register_layer(DedupRepairLayer)
register_layer(StabilityLayer)
register_layer(PiggybackLayer)


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
