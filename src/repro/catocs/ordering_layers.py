"""Delivery-ordering disciplines layered over the reliable group transport.

Each layer receives deduplicated data messages from the transport and decides
when they may be delivered to the application:

- :class:`RawOrdering` — deliver on receipt (the UDP/IP-multicast baseline
  the paper cites: "systems supporting multicast ... without causal
  communication support").
- :class:`FifoOrdering` — per-sender order only.
- :class:`CausalOrdering` — vector-clock (Birman-Schiper-Stephenson [4])
  causal delivery; delays a message until all messages that happen-before it
  have been delivered.  The delay-queue residency it records is exactly the
  "false causality" cost of Section 3.4 whenever the held message was not
  semantically dependent on what it waited for.
- :class:`TotalSequencerOrdering` — a fixed sequencer assigns a single global
  order (consistent with causality because the sequencer orders messages in
  its own causal delivery order).
- :class:`TotalAgreedOrdering` — the decentralised ISIS ABCAST two-phase
  priority agreement.

All layers expose ``stamp`` (sender side), ``accept_local`` (sender's own
copy), ``insert`` (a remote data message), ``on_control`` (protocol control
traffic) and ``forgive`` (a view change's waiver).  None of them returns a
message: a message leaves a layer only through ``release_next``, one at a
time.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

from repro.catocs.messages import (
    CommitRequest,
    DataMessage,
    ForcedCommit,
    MsgId,
    OrderToken,
    OrderTokenRequest,
    PriorityCommit,
    PriorityProposal,
    ProposalRequest,
)
from repro.catocs.stack import (
    ORDER_CAUSAL,
    ORDER_FIFO,
    ORDER_TOTAL,
    ProtocolLayer,
    register_layer,
)
from repro.ordering.dense import bss_deliverable, group_domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember
    from repro.catocs.transport import StabilityLayer


class OrderingLayer(ProtocolLayer):
    """Interface shared by all ordering disciplines.

    Ordering layers are :class:`~repro.catocs.stack.ProtocolLayer` instances
    of kind ``"ordering"``: they sit at the top of a protocol stack and are
    driven through the delivery-gate API below (``stamp`` /
    ``accept_local`` / ``insert`` / ``release_next``) rather than the
    transport pipeline's ``send_down``/``receive_up``, because delivery must
    interleave with application callbacks one message at a time.

    A layer that decides a message on arrival (``raw``, ``fifo``, the
    sender's own copy under ``causal``) puts it on ``_decided``, which the
    base ``release_next`` pops.  The sender's own copy goes to the front, so
    a multicast made from a delivery callback is delivered before the rest
    of the batch that callback belongs to.
    """

    name = "abstract"
    kind = "ordering"

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        #: messages decided for delivery, in release order
        self._decided: Deque[DataMessage] = deque()
        #: (msg_id -> first-receipt time) for messages currently held back.
        self.held_since: Dict[MsgId, float] = {}
        #: (msg_id, hold duration) for every message that was ever delayed.
        self.hold_log: List[Tuple[MsgId, float]] = []
        self.peak_pending = 0
        # Observability: delay-queue residency histogram plus lazy gauges.
        registry = member.sim.metrics
        self._hold_hist = registry.histogram(
            "ordering.hold_time", discipline=self.name
        )
        registry.gauge_fn("ordering.pending", self.pending,
                          discipline=self.name, pid=member.pid)
        registry.gauge_fn("ordering.peak_pending",
                          lambda: self.peak_pending,
                          discipline=self.name, pid=member.pid)

    # -- to be implemented by subclasses --------------------------------------

    def stamp(self, msg: DataMessage) -> None:
        """Attach ordering metadata to an outgoing message."""

    def accept_local(self, msg: DataMessage) -> None:
        """Process the sender's own copy of a just-multicast message."""
        self._decided.appendleft(msg)

    def insert(self, msg: DataMessage) -> None:
        """Process a received (deduplicated) data message."""
        self._decided.append(msg)

    def on_control(self, src: str, payload: Any) -> None:
        """Process an ordering control message (tokens, proposals...)."""

    def forgive(self, ceiling: Dict[str, int]) -> None:
        """Waive dependencies on messages lost with departed senders
        (``ceiling[pid]`` is the most any survivor holds from ``pid``)."""

    def pending(self) -> int:
        """Messages currently held back from delivery."""
        return len(self.held_since)

    def release_next(self) -> Optional[DataMessage]:
        """Release at most one deliverable message, updating layer state for
        that message only.  This is the only way a message leaves the layer.

        The member pumps this in a loop, delivering to the application
        between releases, so any message the application *sends from a
        delivery callback* is stamped against exactly the deliveries the
        application has actually observed — not against a whole batch the
        layer had already accounted internally.  (Found by the hypothesis
        suite: a reaction multicast mid-batch otherwise claims causal
        dependence on messages delivered after it locally.)
        """
        return self._decided.popleft() if self._decided else None

    # -- view-change integration (virtual synchrony for ordering state) --------

    def flush_state(self, departed: set) -> dict:
        """Ordering knowledge to contribute to the flush (e.g. commits or
        sequencer assignments involving ``departed`` senders).  Collected
        into the ViewInstall so every survivor decides in-flight ordering
        questions identically."""
        return {}

    def on_view_install(self, merged_state: dict,
                        departed_counts: Dict[str, int]) -> None:
        """Apply the view's merged ordering state; resolve orphans.

        ``departed_counts[pid]`` is the highest message from the departed
        ``pid`` that any survivor holds — anything beyond it is gone forever
        and must not block delivery."""

    def on_join(self, merged_state: dict, final_counts: Dict[str, int]) -> None:
        """Fast-forward a joining member past the group's flushed history."""

    # -- shared bookkeeping ----------------------------------------------------

    def _hold(self, msg: DataMessage) -> None:
        self.held_since.setdefault(msg.msg_id, self.member.sim.now)
        if len(self.held_since) > self.peak_pending:
            self.peak_pending = len(self.held_since)

    def _release(self, msg: DataMessage) -> None:
        start = self.held_since.pop(msg.msg_id, None)
        if start is not None:
            duration = self.member.sim.now - start
            self.hold_log.append((msg.msg_id, duration))
            self._hold_hist.observe(duration)

    def total_hold_time(self) -> float:
        return sum(duration for _, duration in self.hold_log)

    def layer_metrics(self) -> Dict[str, Any]:
        return {
            "pending": self.pending(),
            "peak_pending": self.peak_pending,
            "total_hold_time": self.total_hold_time(),
        }


class RawOrdering(OrderingLayer):
    """No ordering guarantee beyond what the network happens to provide."""

    name = "raw"


class FifoOrdering(OrderingLayer):
    """Per-sender FIFO delivery."""

    name = "fifo"
    order = ORDER_FIFO

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self._next: Dict[str, int] = {}
        self._queued: Dict[str, Dict[int, DataMessage]] = {}

    def accept_local(self, msg: DataMessage) -> None:
        # A process sends its own messages in seq order, so they are always
        # immediately deliverable locally.
        self._next[msg.sender] = msg.seq + 1
        self._decided.appendleft(msg)

    def insert(self, msg: DataMessage) -> None:
        sender = msg.sender
        expected = self._next.get(sender, 1)
        if msg.seq != expected:
            self._hold(msg)
            self._queued.setdefault(sender, {})[msg.seq] = msg
            return
        self._decided.append(msg)
        self._next[sender] = msg.seq + 1
        queue = self._queued.get(sender, {})
        while self._next[sender] in queue:
            ready = queue.pop(self._next[sender])
            self._release(ready)
            self._decided.append(ready)
            self._next[sender] = ready.seq + 1


class CausalOrdering(OrderingLayer):
    """Vector-clock causal delivery (BSS algorithm).

    The vector clock counts data multicasts per sender, so a message's own
    component equals its sequence number.  Message ``m`` from ``j`` with
    stamp ``V`` is deliverable at ``i`` when ``V[j] == delivered[j] + 1`` and
    ``V[k] <= delivered[k]`` for every ``k != j``.

    Timestamps are dense int-indexed clocks over the group's shared
    :class:`~repro.ordering.dense.ClockDomain`: every member of one group
    resolves the same domain through its simulator (a socket host decodes
    stamps into it), so the stamp a sender attaches is compared against
    each receiver's ``delivered`` clock as two flat arrays.

    Each message on the fast path takes the BSS test once, in
    :meth:`insert`; :meth:`release_next` pops ``_fast`` without testing
    again.  A message that passed stays deliverable until it is released,
    because between view changes ``delivered`` only rises one delivery at
    a time: the message's other components stay covered, and its sender's
    entry reaches the message's seq only by delivering that id, once,
    since **an id reaches** :meth:`insert` **at most once** (the dedup
    layer drops repeats, and a hybrid stub is inserted only when its
    refill arrives).  The sender's own :meth:`accept_local` raises only
    its own entry, never a received message's sender.  The two view-change
    events are the exceptions: a joiner's fast-forward (:meth:`on_join`)
    can carry ``delivered`` past a message, and :meth:`forgive` can raise
    a ceiling an earlier view set lower.  Both test again what waits on
    the fast path.  ``deliver_ready`` drains ``_fast`` after every insert,
    so that is nearly always nothing.
    """

    name = "causal"
    order = ORDER_CAUSAL
    stamped = True

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self._domain = group_domain(
            member.sim, member.group, member.view_members
        )
        self.delivered = self._domain.zero()
        self._queue: List[DataMessage] = []
        #: Fast path: messages already deliverable on insertion, released
        #: FIFO ahead of any delay-queue scan.  In the common no-reordering
        #: case every message lands here and release costs O(1) instead of
        #: an O(pending) scan of the delay queue.
        self._fast: Deque[DataMessage] = deque()
        #: Highest seq per sender still recoverable from *somebody* after a
        #: view change; dependencies beyond it were lost with a crashed
        #: sender (atomic-but-not-durable) and are waived so delivery does
        #: not block forever.  None until the first view change.
        self._ceiling: Optional[Dict[str, int]] = None

    def stamp(self, msg: DataMessage) -> None:
        # One-pass array copy+tick; ``delivered`` itself is never aliased,
        # so the per-delivery ``advance`` calls stay in-place mutations.
        msg.vc = self.delivered.stamped(msg.sender)

    def accept_local(self, msg: DataMessage) -> None:
        # Sender delivers its own multicast immediately: everything it
        # depends on was already delivered locally before the send.
        self.delivered.advance(msg.sender, msg.seq)
        self._decided.appendleft(msg)

    def _required(self, pid: str, wanted: int) -> int:
        """Dependency level actually required, after waiving lost messages.

        The ceiling only covers *departed* senders; anyone else's messages
        are still recoverable (or still being sent), so their dependencies
        stay binding.
        """
        if self._ceiling is None or pid not in self._ceiling:
            return wanted
        return min(wanted, self._ceiling[pid])

    def _deliverable(self, msg: DataMessage) -> bool:
        assert msg.vc is not None, "causal message missing vector clock"
        sender = msg.sender
        vc = msg.vc
        ceiling = self._ceiling
        if ceiling is None or not any(vc[pid] > cap for pid, cap in ceiling.items()):
            # Fast path for the common case: a flat array comparison.  The
            # ceiling lowers a dependency only where the stamp exceeds it
            # (``_required``); with no such component -- no view change yet,
            # or a stamp that depends on nothing lost -- the per-component
            # test below reduces to exactly this one.
            return bss_deliverable(vc, self.delivered, sender)
        if self.delivered[sender] < self._required(sender, vc[sender] - 1):
            return False
        if vc[sender] <= self.delivered[sender]:
            return False  # stale duplicate; transport should have deduped
        for pid in vc:
            if pid != sender and self.delivered[pid] < self._required(pid, vc[pid]):
                return False
        return True

    def insert(self, msg: DataMessage) -> None:
        self._hold(msg)
        if self._deliverable(msg):
            self._fast.append(msg)
        else:
            self._queue.append(msg)

    def _commit_release(self, msg: DataMessage) -> DataMessage:
        self._release(msg)
        self.delivered.advance(msg.sender, msg.seq)
        return msg

    def release_next(self) -> Optional[DataMessage]:
        if self._decided:
            return self._decided.popleft()
        if self._fast:
            # Tested once, at insertion, and still deliverable (see the
            # class notes): released without a second test.
            return self._commit_release(self._fast.popleft())
        for queued in self._queue:
            if self._deliverable(queued):
                self._queue.remove(queued)
                return self._commit_release(queued)
        return None

    def on_join(self, merged_state: dict, final_counts: Dict[str, int]) -> None:
        # History counts as delivered: causal conditions start at the
        # view's frontier for a joiner.
        self.delivered.merge_in(final_counts)
        self._retest_fast()

    def _retest_fast(self) -> None:
        """Test again each message waiting on the fast path, after an event
        that can turn a passed test into a failed one (see the class
        notes); one that fails goes to the delay queue."""
        fast, self._fast = self._fast, deque()
        for msg in fast:
            (self._fast if self._deliverable(msg) else self._queue).append(msg)

    def forgive(self, ceiling: Dict[str, int]) -> None:
        """Install the post-view-change recoverability ceiling.

        ``ceiling[pid]`` is the highest contiguous seq from ``pid`` that any
        surviving member holds; dependencies beyond it are unsatisfiable and
        are waived (the messages were lost with their sender).
        """
        merged = dict(ceiling)
        if self._ceiling is not None:
            for pid, count in self._ceiling.items():
                merged[pid] = max(merged.get(pid, 0), count)
        self._ceiling = merged
        self._retest_fast()


class TotalSequencerOrdering(CausalOrdering):
    """Fixed-sequencer total order, consistent with causality.

    The causal filter is inherited: a message that clears it advances
    ``delivered`` but stays held until its token.  The sequencer (the
    lowest pid of the installed view) assigns global indices in the order
    messages clear *its* causal filter and multicasts :class:`OrderToken`
    assignments.  Members deliver strictly in global-index order once both
    the message and its token have arrived — this also respects causality
    because the sequencer's assignment order is a causal order.

    Suspecting the sequencer does not make a member sequencer: only the
    view install does, after the flush has handed over every surviving
    assignment.  The new sequencer adopts its unassigned messages in the
    order they cleared its causal filter, then continues from
    ``_next_assign``: one past the highest index this member knows of,
    from its own assignments, received tokens, the flush merge or a join.

    ``_order`` and ``_assigned`` keep one entry per message ever ordered,
    unbounded: any member answers an ``OrderTokenRequest`` from its map,
    from the asker's delivery point up, and the flush hands the whole map
    over so that a new sequencer continues past every surviving assignment.
    ``_assigned`` stops a new sequencer giving a second index to a message
    whose token beat its data, which may arrive as late as repair allows.
    Pruning either needs every member's delivery point, never learnt here.
    """

    name = "total-seq"
    order = ORDER_TOTAL

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        #: How long a member waits for a missing order token before asking
        #: the sequencer to resend (lost-control-message repair), in the
        #: member's own time units: five NAK delays.
        self.token_repair_delay = 5.0 * member.nak_delay
        self._ready: Dict[MsgId, DataMessage] = {}
        self._order: Dict[int, MsgId] = {}
        #: every id in ``_order``'s values: an id is assigned at most once
        self._assigned: Set[MsgId] = set()
        self._next_deliver = 0
        self._next_assign = 0
        self._repair_armed = False

    @property
    def is_sequencer(self) -> bool:
        return self.member.pid == min(self.member.view_members)

    def _learn(self, index: int, msg_id: MsgId) -> None:
        """Record an assignment: the one place ``_next_assign`` and
        ``_assigned`` move."""
        self._order[index] = msg_id
        self._assigned.add(msg_id)
        if index >= self._next_assign:
            self._next_assign = index + 1

    def _commit_release(self, msg: DataMessage) -> DataMessage:
        # Past the causal filter, but still held: the hold ends at delivery.
        self.delivered.advance(msg.sender, msg.seq)
        return msg

    def on_control(self, src: str, payload: Any) -> None:
        if isinstance(payload, OrderToken):
            for index, msg_id in payload.assignments:
                self._learn(index, msg_id)
        elif isinstance(payload, OrderTokenRequest):
            assignments = [
                (index, self._order[index])
                for index in sorted(self._order)
                if index >= payload.from_index
            ]
            if assignments:
                self.member.send_control(
                    payload.requester,
                    OrderToken(
                        group=self.member.group,
                        sequencer=self.member.pid,
                        assignments=assignments,
                    ),
                )

    def _stage_causal(self) -> None:
        """Stage every message the causal filter can release."""
        released = CausalOrdering.release_next(self)
        while released is not None:
            self._stage(released)
            released = CausalOrdering.release_next(self)

    def _stage(self, msg: DataMessage) -> None:
        self._ready[msg.msg_id] = msg
        if msg.msg_id not in self.held_since:
            # Locally-originated messages also wait for their token.
            self._hold(msg)
        if self.is_sequencer and msg.msg_id not in self._assigned:
            # An old sequencer's token can overtake the data it orders.
            self._assign(msg.msg_id)

    def _assign(self, msg_id: MsgId) -> None:
        """Sequencer: give ``msg_id`` the next index and announce it."""
        index = self._next_assign
        self._learn(index, msg_id)
        self.member.broadcast_control(OrderToken(
            group=self.member.group, sequencer=self.member.pid,
            assignments=[(index, msg_id)]))

    def release_next(self) -> Optional[DataMessage]:
        self._stage_causal()
        if self._next_deliver in self._order:
            msg_id = self._order[self._next_deliver]
            msg = self._ready.get(msg_id)
            if msg is not None:
                del self._ready[msg_id]
                self._release(msg)
                self._next_deliver += 1
                return msg
        if self._ready and not self.is_sequencer and not self._repair_armed:
            # Blocked with undelivered ready messages: a token may be lost.
            self._repair_armed = True
            self.member.set_timer(self.token_repair_delay, self._request_repair)
        return None

    def _request_repair(self) -> None:
        self._repair_armed = False
        # Any member answers from its assignments: ask the lowest pid
        # believed alive (the next sequencer, before the view installs),
        # but never this member itself.
        target = self.member.sequencer_pid()
        if not self._ready or self._next_deliver in self._order or target == self.member.pid:
            return
        self.member.send_control(
            target,
            OrderTokenRequest(
                group=self.member.group,
                requester=self.member.pid,
                from_index=self._next_deliver,
            ),
        )
        self._repair_armed = True
        self.member.set_timer(self.token_repair_delay * 2, self._request_repair)

    # -- view-change integration ---------------------------------------------------

    def flush_state(self, departed: set) -> dict:
        # Hand the whole assignment map over: a dead sequencer's assignments
        # must survive it, and the new sequencer continues from their top.
        return {"assignments": dict(self._order)}

    def on_view_install(self, merged_state: dict,
                        departed_counts: Dict[str, int]) -> None:
        for index, msg_id in merged_state.get("assignments", {}).items():
            self._learn(index, msg_id)
        # Skip assignments whose message died with a departed sender and is
        # beyond what any survivor holds: it can never arrive, and leaving
        # it would block global delivery forever.
        while self._next_deliver in self._order:
            msg_id = self._order[self._next_deliver]
            sender, seq = msg_id
            unrecoverable = (msg_id not in self._ready
                             and sender in departed_counts
                             and seq > departed_counts[sender])
            if not unrecoverable:
                break
            del self._order[self._next_deliver]
            self._next_deliver += 1
        if self.is_sequencer:
            # Adopt orphaned ready messages into the global order (e.g. the
            # old sequencer died before assigning them), in the order they
            # cleared the causal filter, a causal order; then stage the rest.
            for msg_id in [m for m in self._ready if m not in self._assigned]:
                self._assign(msg_id)
            self._stage_causal()

    def on_join(self, merged_state: dict, final_counts: Dict[str, int]) -> None:
        super().on_join(merged_state, final_counts)
        for index, msg_id in merged_state.get("assignments", {}).items():
            self._learn(index, msg_id)
        if self._order:
            self._next_deliver = self._next_assign  # history is not replayed to joiners


class TotalAgreedOrdering(OrderingLayer):
    """Decentralised agreed total order (ISIS ABCAST).

    Phase 1: every member proposes a priority for each new message (its
    local priority counter) back to the message's sender.  Phase 2: the
    sender commits the maximum proposal.  Messages deliver in
    (priority, proposer-pid) order once committed and at the queue head.

    The hold-back set is ``_pending`` (the dict every other method reads)
    plus ``_heap``, a ``heapq`` of ``(priority, tiebreak, msg_id)`` keys
    with lazy invalidation: :meth:`_rekey` pushes an entry's new key and
    leaves the old one behind, and :meth:`release_next` discards any head
    whose key is no longer its live entry's.  The heap therefore holds at
    most one stale key per re-key and empties whenever ``_pending`` does.

    A sender commits its own messages in seq order: a message whose
    proposals are all in waits in ``_ready`` while a lower own seq is still
    open, and goes out in the same tick as that predecessor's commit.  Each
    commit also goes above the sender's previous one (FIFO): a member that
    got the earlier message late, by repair, proposed high for it, so when
    the collected maximum is not above the last own commit the sender
    commits ``(last priority + 1, own pid)`` instead.  Skeen's rule needs
    only commit >= every proposal, and a raise keeps that.  The raised key
    may equal another message's final key (``own pid`` may have proposed
    ``last + 1`` for it); ``_heap`` orders such a tie by ``msg_id``, the
    same at every member, and delivery stays safe because each message's
    final ``(priority, tiebreak)`` is still at least every member's
    tentative one.  So a commit for seq ``k`` arriving from its sender is
    proof that every lower seq of that sender was committed and broadcast:
    :attr:`proof_grace` later (covering commits of one tick that arrive
    out of order), the receiver asks for each one still open here.  Each
    id so asked gets one *chase*: every :attr:`proposal_timeout` it asks
    again, which repairs a lost request or answer, until the commit is
    applied, a view install drops the id, or ``max_proposal_retries`` asks
    went unanswered (counted as ``commit_chases_abandoned``).  The fallback
    timer armed by :meth:`release_next` covers what no proof reaches, a
    sender's last message, and a chase that gave up; it asks only for each
    sender's lowest open seq, since no higher one can have been committed
    before it.  ``_open`` indexes the held, uncommitted seqs per sender for
    both rules.

    Per-message agreement state lives only as long as the agreement:
    ``_proposals``, ``_retries`` and ``_ready`` (the sender's side) and
    ``_asked`` and ``_chasing`` (a receiver's commit requests) are dropped
    when the message commits, and ``_proposals`` takes proposals only for
    an open own message, so one forged for any other id is never kept.
    ``_commit_values`` is the one record kept for good, and it has no
    bound: any member may be asked for a commit it applied long ago (a
    ``CommitRequest`` from a peer whose copy was lost), and the view-change
    flush hands a departed sender's commits to every survivor.  ``_forced``
    beside it names the applied commits that prove nothing (below); it is a
    subset of ``_commit_values``' keys, added to only when a commit is
    first applied, and kept for the same reason: a late ``CommitRequest``
    for a forced commit must be answered with a ``ForcedCommit``.

    A member proposes only for a message it holds, so a commit made with
    every view member's proposal proves that every member holds the
    message: applying it, a member releases that one message from its
    stability buffer (:meth:`StabilityLayer.release`) instead of waiting
    for the matrix clock to learn the same fact from acks.  The proof
    covers the message, not its sender's lower seqs, which may have been
    committed without it.  A commit made without some member's proposal
    travels as a :class:`ForcedCommit`, and a commit learned from a view
    install is taken as one: neither releases anything, so the message
    stays buffered for the silent member's NAK.

    A sender re-solicits missing proposals one measured round after the
    send: :attr:`proposal_timeout` is ``1.25 ×`` the slowest proposal
    collection it has seen for an own message never re-solicited, clamped
    to ``[nak_delay, 4 × nak_delay]``.  A loss-free round outlasts it only
    when 25% slower than every round before it; before the first sample
    it is the upper bound.

    Every repair deadline is in the member's own time units, a multiple of
    its ``nak_delay`` or of a round it measured, so one rule serves virtual
    time and seconds alike.
    """

    name = "total-agreed"
    order = ORDER_TOTAL

    #: Re-solicitations of believed-alive non-proposers before giving up.
    #: The first goes one ``proposal_timeout`` after the send; the wait then
    #: doubles up to four timeouts, so the sender commits without a silent
    #: member after 44 timeouts: 880 units at the default ``nak_delay``
    #: before any round is measured, about 545 at a measured 9.9-unit
    #: round.  While a higher own seq is open the wait does not double,
    #: because that successor's commit waits on this one: then the window
    #: is 13 timeouts (260 units at most).
    #: A member that stays silent that long is treated as failed and the
    #: sender commits with the proposals it has: the view-synchronous escape
    #: hatch real implementations tie to membership changes.  Under message
    #: loss that can very rarely commit a priority below a survivor's
    #: tentative proposal; the loss-injection tests therefore assert
    #: liveness and causality, and the agreed-total-order consistency
    #: properties are asserted on loss-free networks.  The number of rounds,
    #: not the window, is what keeps a lossy link from forcing a commit: at
    #: 15% loss each round fails about 28% of the time; at the measured
    #: deadline eight rounds forced 4 commits over 96 seeds, twelve none.
    max_proposal_retries = 12

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        nak_delay = member.nak_delay
        #: The slowest first-round proposal collection seen: from
        #: ``accept_local`` to the last proposal, for own messages never
        #: re-solicited (Karn's rule).  0 until the first sample.
        self.slowest_round = 0.0
        #: The fastest single proposal seen: from ``accept_local`` to one
        #: peer's proposal answered before any re-solicit of its message
        #: (Karn's rule per proposal).  0 until the first sample.
        self.fastest_round = 0.0
        #: How long a member holds a sender's lowest open message, while
        #: another sender's message blocks its delivery head, before the
        #: fallback timer asks for the (possibly lost) commit; twice this
        #: between fallback asks for the same message.
        self.commit_repair_delay = 6.0 * nak_delay
        self._max_priority = 0
        #: the last ``(priority, tiebreak)`` this member committed for an
        #: own message; each next own commit goes above it
        self._last_own = (0, "")
        # msg_id -> [msg, priority, tiebreak pid, committed?]
        self._pending: Dict[MsgId, list] = {}
        #: release order over ``_pending``; may hold superseded keys
        self._heap: List[Tuple[int, str, MsgId]] = []
        #: sender -> sorted seqs of its held, uncommitted messages
        self._open: Dict[str, List[int]] = {}
        self._proposals: Dict[MsgId, Dict[str, int]] = {}
        self._retries: Dict[MsgId, int] = {}
        #: own messages ready to commit behind a lower open own seq
        self._ready: Set[MsgId] = set()
        #: every commit applied here, so any member can answer a
        #: CommitRequest; its keys are the committed ids
        self._commit_values: Dict[MsgId, Tuple[int, str]] = {}
        #: the committed ids whose commit proves nothing of who holds the
        #: message: answered with a ForcedCommit
        self._forced: Set[MsgId] = set()
        #: the stack's stability layer, which a proving commit releases
        #: its message from (None without one)
        self._stability: Optional["StabilityLayer"] = None
        #: msg_id -> when this member last sent a CommitRequest for it
        self._asked: Dict[MsgId, float] = {}
        #: msg_id -> asks its chase has made for a proven-owed commit
        self._chasing: Dict[MsgId, int] = {}
        self._repair_armed = False
        #: chases that gave up after ``max_proposal_retries`` asks
        self.commit_chases_abandoned = 0
        #: commits made without a believed-alive member's proposal
        self.proposals_forced = 0

    @property
    def proposal_timeout(self) -> float:
        """How long the sender waits for missing proposals (a lost proposal
        or data message, or a crashed member) before re-soliciting them:
        ``1.25 ×`` the slowest measured round, clamped to ``[nak_delay,
        4 × nak_delay]``, and ``4 × nak_delay`` until a round is measured."""
        nak_delay = self.member.nak_delay
        if not self.slowest_round:
            return 4.0 * nak_delay
        return min(max(1.25 * self.slowest_round, nak_delay), 4.0 * nak_delay)

    @property
    def proof_grace(self) -> float:
        """How long after a sender's commit for seq k a member asks for
        that sender's lower seqs still open here, and half the spacing of
        asks for one message on fresh proof: half the spread of the
        measured rounds, ``(slowest_round - fastest_round) / 2``, at most
        ``nak_delay``, and ``nak_delay`` until a round is measured.  A round
        is two one-way trips, so half its spread is the one-way jitter; the
        commits of one tick travel one link, so that is all they can be
        reordered by."""
        nak_delay = self.member.nak_delay
        if not self.slowest_round:
            return nak_delay
        return min((self.slowest_round - self.fastest_round) / 2, nak_delay)

    def on_attached(self) -> None:
        self._stability = self.stack.layer("stability")  # may be None

    def stamp(self, msg: DataMessage) -> None:
        pass  # priorities travel in control messages, not on the data message

    def accept_local(self, msg: DataMessage) -> None:
        self._note_message(msg)
        own_priority = self._propose()
        self._rekey(msg.msg_id, own_priority, self.member.pid)
        self._record_proposal(msg.msg_id, self.member.pid, own_priority)
        self.member.set_timer(self.proposal_timeout, self._finalize_on_timeout, msg.msg_id)

    def insert(self, msg: DataMessage) -> None:
        agreed = self._commit_values.get(msg.msg_id)
        self._note_message(msg, committed=agreed is not None)
        if agreed is not None:
            # The commit overtook its data (the sender finalised without us
            # while it suspected us).  Take the agreed place and propose
            # nothing: an uncommitted entry here could never be completed,
            # because _apply_commit ignores ids it has already recorded.
            self._rekey(msg.msg_id, *agreed)
            return
        priority = self._propose()
        self._rekey(msg.msg_id, priority, self.member.pid)
        self.member.send_control(
            msg.sender,
            PriorityProposal(
                group=self.member.group,
                proposer=self.member.pid,
                msg_id=msg.msg_id,
                priority=priority,
            ),
        )

    def on_control(self, src: str, payload: Any) -> None:
        if isinstance(payload, PriorityProposal):
            self._record_proposal(payload.msg_id, payload.proposer, payload.priority)
        elif isinstance(payload, PriorityCommit):
            msg_id = payload.msg_id
            self._apply_commit(msg_id, payload.priority, payload.tiebreak,
                               proof=not isinstance(payload, ForcedCommit))
            if src == msg_id[0]:
                # Only the sender's own commit proves its lower seqs were
                # committed; another member's answer proves nothing of it.
                seqs = self._open.get(src)
                if seqs and seqs[0] < msg_id[1]:
                    self.member.set_timer(self.proof_grace, self._ask_on_proof, msg_id)
        elif isinstance(payload, CommitRequest):
            if payload.msg_id in self._commit_values:
                self._send_commit(payload.msg_id, payload.requester)
        elif isinstance(payload, ProposalRequest):
            self._answer_proposal_request(src, payload)

    def _answer_proposal_request(self, src: str, request: ProposalRequest) -> None:
        msg = request.msg
        fresh = self.stack.receive_data(src, msg)
        if fresh is not None:
            # We never saw the data; process it normally (which proposes).
            self.insert(fresh)
            return
        if msg.msg_id in self._commit_values:
            # Already committed here; the sender must have the commit too,
            # so nothing useful to add.
            return
        entry = self._pending.get(msg.msg_id)
        if entry is not None and entry[2] == self.member.pid:
            # Our earlier proposal was lost; resend it.
            self.member.send_control(
                request.requester,
                PriorityProposal(
                    group=self.member.group,
                    proposer=self.member.pid,
                    msg_id=msg.msg_id,
                    priority=entry[1],
                ),
            )

    # -- internals -------------------------------------------------------------

    def _note_message(self, msg: DataMessage, committed: bool = False) -> None:
        if msg.msg_id not in self._pending:
            self._pending[msg.msg_id] = [msg, 0, "", committed]
            if not committed:
                insort(self._open.setdefault(msg.sender, []), msg.seq)
            if msg.msg_id not in self.held_since:
                self._hold(msg)


    def _rekey(self, msg_id: MsgId, priority: int, tiebreak: str) -> None:
        """Move a pending entry to ``(priority, tiebreak)`` in the release
        order.  The key it had stays in the heap until ``release_next`` sheds
        it."""
        entry = self._pending[msg_id]
        entry[1] = priority
        entry[2] = tiebreak
        heappush(self._heap, (priority, tiebreak, msg_id))

    def _propose(self) -> int:
        self._max_priority += 1
        entry = self._max_priority
        return entry

    def _record_proposal(self, msg_id: MsgId, proposer: str, priority: int) -> None:
        # Proposals go only to a message's sender, and only while it is
        # open there: anything else (late, or forged for an id this
        # member never sent) is dropped before it can be kept.
        member = self.member
        if (msg_id[0] != member.pid or msg_id not in self._pending
                or msg_id in self._commit_values):
            return
        box = self._proposals.setdefault(msg_id, {})
        new_proposer = proposer not in box
        box[proposer] = priority
        took = None
        if new_proposer and msg_id not in self._retries:
            # Karn's rule: only answers to the first round are samples.
            took = member.sim.now - self.held_since[msg_id]
            if proposer != member.pid and (not self.fastest_round
                                           or took < self.fastest_round):
                self.fastest_round = took
        members = member.view_members
        # The length test settles every proposal but the last one
        # without building a set.
        if len(box) >= len(members) and box.keys() >= set(members):
            if took is not None and took > self.slowest_round:
                self.slowest_round = took
            self._commit(msg_id)

    def _finalize_on_timeout(self, msg_id: MsgId) -> None:
        if msg_id in self._commit_values:
            return
        entry = self._pending.get(msg_id)
        if entry is None or entry[0].sender != self.member.pid:
            return
        proposers = set(self._proposals.get(msg_id, {}))
        missing = [
            pid
            for pid in self.member.view_members
            if pid not in proposers and self.member.believes_alive(pid)
        ]
        retries = self._retries.get(msg_id, 0)
        if missing and retries < self.max_proposal_retries:
            # The data message or the proposal reply may have been lost;
            # re-solicit and wait another, longer round.  Committing without
            # a live member's proposal could break the agreed-priority
            # invariant (final >= every tentative).
            self._retries[msg_id] = retries + 1
            request = ProposalRequest(
                group=self.member.group,
                requester=self.member.pid,
                msg=entry[0],
            )
            for pid in missing:
                self.member.send_control(pid, request)
            successors_wait = self._open[self.member.pid][-1] > msg_id[1]
            backoff = 1 if successors_wait else min(2 ** retries, 4)
            self.member.set_timer(self.proposal_timeout * backoff,
                                  self._finalize_on_timeout, msg_id)
            return
        if missing:
            self.proposals_forced += 1
        self._commit(msg_id)
        self.member.deliver_ready()

    def _commit(self, msg_id: MsgId) -> None:
        """Commit own message ``msg_id`` now, or once every lower own seq
        has committed; then commit the successors that were waiting on it,
        in seq order."""
        if not self._proposals.get(msg_id) or msg_id in self._commit_values:
            return
        member = self.member
        own = self._open[member.pid]
        if own[0] != msg_id[1]:
            self._ready.add(msg_id)
            return
        while True:
            self._ready.discard(msg_id)
            box = self._proposals[msg_id]
            agreed = max(box.values())
            tiebreak = max(p for p, prio in box.items() if prio == agreed)
            last = self._last_own
            if (agreed, tiebreak) <= last:
                # FIFO: go above the last own commit (see the class notes).
                agreed, tiebreak = last[0] + 1, member.pid
            self._last_own = (agreed, tiebreak)
            # Every view member proposed, so every member holds the message.
            proof = all(pid in box for pid in member.view_members)
            self._apply_commit(msg_id, agreed, tiebreak, proof)
            self._send_commit(msg_id)
            if not own:
                return
            msg_id = (member.pid, own[0])
            if msg_id not in self._ready:
                return

    def _apply_commit(self, msg_id: MsgId, priority: int, tiebreak: str,
                      proof: bool) -> None:
        """Record ``msg_id``'s agreed key.  ``proof``: the commit had every
        view member's proposal, so every member holds the message and the
        stability buffer can let it go (see the class notes)."""
        if msg_id in self._commit_values:
            return
        self._commit_values[msg_id] = (priority, tiebreak)
        if not proof:
            self._forced.add(msg_id)
        elif self._stability is not None:
            self._stability.release(msg_id)
        # Every reader of these maps returns early on a committed id, so the
        # agreement's working state dies here.
        self._proposals.pop(msg_id, None)
        self._retries.pop(msg_id, None)
        self._asked.pop(msg_id, None)
        self._chasing.pop(msg_id, None)
        if priority > self._max_priority:
            self._max_priority = priority
        if msg_id in self._pending:
            self._pending[msg_id][3] = True
            self._close(msg_id)
            self._rekey(msg_id, priority, tiebreak)

    def _send_commit(self, msg_id: MsgId, to: Optional[str] = None) -> None:
        """Send the commit applied here for ``msg_id`` to ``to``, or to every
        peer: a :class:`ForcedCommit` if it proves nothing of who holds the
        message, so that its receiver keeps the message buffered too."""
        member = self.member
        priority, tiebreak = self._commit_values[msg_id]
        commit = (ForcedCommit if msg_id in self._forced else PriorityCommit)(
            group=member.group, sender=member.pid, msg_id=msg_id,
            priority=priority, tiebreak=tiebreak)
        if to is None:
            member.broadcast_control(commit)
        else:
            member.send_control(to, commit)

    def _close(self, msg_id: MsgId) -> None:
        """Take a held message out of its sender's open seqs."""
        sender, seq = msg_id
        seqs = self._open[sender]
        seqs.remove(seq)
        if not seqs:
            del self._open[sender]

    def _commit_due(self, msg_id: MsgId) -> float:
        """When this member should ask for ``msg_id``'s commit:
        ``commit_repair_delay`` after it was first held, and twice that after
        each ask."""
        asked = self._asked.get(msg_id)
        if asked is None:
            return self.held_since[msg_id] + self.commit_repair_delay
        return asked + 2 * self.commit_repair_delay

    def release_next(self) -> Optional[DataMessage]:
        pending = self._pending
        heap = self._heap
        while heap:
            priority, tiebreak, head_id = heap[0]
            entry = pending.get(head_id)
            if entry is None or entry[1] != priority or entry[2] != tiebreak:
                # Superseded by a re-key, or its message was already
                # released or dropped by a view change.
                heappop(heap)
                continue
            if not entry[3]:
                # Blocked.  Only another sender can owe this member a
                # commit; its own messages commit through the proposal
                # timeout.  That sender commits in seq order, so the head
                # waits on the sender's lowest open seq.
                sender = head_id[0]
                if not self._repair_armed and sender != self.member.pid:
                    self._repair_armed = True
                    lowest = (sender, self._open[sender][0])
                    delay = self._commit_due(lowest) - self.member.sim.now
                    self.member.set_timer(max(delay, 0.0), self._request_commit_repair)
                return None
            heappop(heap)
            del pending[head_id]
            self._release(entry[0])
            return entry[0]
        return None

    # -- view-change integration ---------------------------------------------------

    def flush_state(self, departed: set) -> dict:
        # Contribute every commit we know for a departed sender's messages:
        # the merged view decides those orphans' fates uniformly.
        return {
            "commits": {
                mid: self._commit_values[mid]
                for mid in self._commit_values
                if mid[0] in departed
            }
        }

    def on_view_install(self, merged_state: dict,
                        departed_counts: Dict[str, int]) -> None:
        # Apply every commit any survivor knew about.  The merge does not say
        # whether a commit had every proposal, so it proves nothing.
        for msg_id, (priority, tiebreak) in merged_state.get("commits", {}).items():
            self._apply_commit(msg_id, priority, tiebreak, proof=False)
        # Uncommitted messages from departed senders never reached agreement
        # (no survivor holds a commit): the sender died mid-protocol, so the
        # message is dropped everywhere — atomic, not durable (Section 2).
        for msg_id in list(self._pending):
            msg, _priority, _tiebreak, committed = self._pending[msg_id]
            if not committed and msg_id[0] in departed_counts:
                del self._pending[msg_id]
                self._close(msg_id)
                self._asked.pop(msg_id, None)
                self._chasing.pop(msg_id, None)
                self._release(msg)
        # Pending proposal collections involving departed members resolve by
        # the normal timeout path (believes_alive now excludes them).

    def _ask(self, msg_id: MsgId) -> None:
        member = self.member
        request = CommitRequest(group=member.group, requester=member.pid,
                                msg_id=msg_id)
        if member.believes_alive(msg_id[0]):
            member.send_control(msg_id[0], request)
        else:
            # Any survivor may hold the commit of a suspected sender.
            member.broadcast_control(request)
        self._asked[msg_id] = member.sim.now

    def _ask_on_proof(self, proof: MsgId) -> None:
        """Ask for each of the proof's sender's open seqs below it, unless
        asked within the last ``2 × proof_grace``: its commit was sent, so
        it was lost (or its answer was)."""
        sender, seq = proof
        now = self.member.sim.now
        for lower in self._open.get(sender, ()):
            if lower >= seq:
                break
            msg_id = (sender, lower)
            asked = self._asked.get(msg_id)
            if asked is None or now - asked >= 2 * self.proof_grace:
                self._ask(msg_id)
                if msg_id not in self._chasing:
                    self._chasing[msg_id] = 1
                    self.member.set_timer(self.proposal_timeout, self._chase, msg_id)

    def _chase(self, msg_id: MsgId) -> None:
        """Ask again for a proven-owed commit every ``proposal_timeout``
        until it is applied or the id is dropped; give up after
        ``max_proposal_retries`` asks."""
        asks = self._chasing.get(msg_id)
        if asks is None:
            return
        if asks >= self.max_proposal_retries:
            del self._chasing[msg_id]
            self.commit_chases_abandoned += 1
            return
        self._chasing[msg_id] = asks + 1
        self._ask(msg_id)
        self.member.set_timer(self.proposal_timeout, self._chase, msg_id)

    def _request_commit_repair(self) -> None:
        """Ask for each other sender's lowest open seq whose commit is
        overdue, then re-arm through :meth:`release_next` if the head is
        still blocked."""
        self._repair_armed = False
        member = self.member
        now = member.sim.now
        for sender in sorted(self._open):
            msg_id = (sender, self._open[sender][0])
            if sender != member.pid and self._commit_due(msg_id) <= now:
                self._ask(msg_id)
        member.deliver_ready()

    def layer_metrics(self) -> Dict[str, Any]:
        data = super().layer_metrics()
        data["proposals_forced"] = self.proposals_forced
        data["commit_chases_abandoned"] = self.commit_chases_abandoned
        return data


for _cls in (RawOrdering, FifoOrdering, CausalOrdering,
             TotalSequencerOrdering, TotalAgreedOrdering):
    register_layer(_cls)
