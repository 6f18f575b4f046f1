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
copy), ``insert`` (a remote data message), and ``on_control`` (protocol
control traffic), each returning the list of messages that became
deliverable, in delivery order.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

from repro.catocs.messages import (
    CommitRequest,
    DataMessage,
    MsgId,
    OrderToken,
    OrderTokenRequest,
    PriorityCommit,
    PriorityProposal,
    ProposalRequest,
)
from repro.catocs.stack import ProtocolLayer, register_layer
from repro.ordering.dense import bss_deliverable, group_domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember


class OrderingLayer(ProtocolLayer):
    """Interface shared by all ordering disciplines.

    Ordering layers are :class:`~repro.catocs.stack.ProtocolLayer` instances
    of kind ``"ordering"``: they sit at the top of a protocol stack and are
    driven through the delivery-gate API below (``stamp`` /
    ``accept_local`` / ``insert`` / ``release_next``) rather than the
    transport pipeline's ``send_down``/``receive_up``, because delivery must
    interleave with application callbacks one message at a time.
    """

    name = "abstract"
    kind = "ordering"
    #: True when the sender's own message must wait for a global order
    #: decision before local delivery (total-order disciplines).
    delays_local_delivery = False

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
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

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        """Process the sender's own copy of a just-multicast message."""
        return [msg]

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        """Process a received (deduplicated) data message."""
        return [msg]

    def on_control(self, src: str, payload: Any) -> List[DataMessage]:
        """Process an ordering control message (tokens, proposals...)."""
        return []

    def pending(self) -> int:
        """Messages currently held back from delivery."""
        return len(self.held_since)

    def poke(self) -> List[DataMessage]:
        """Re-check the delay queue after external state changes (e.g. a
        view change waived unsatisfiable dependencies)."""
        return []

    def release_next(self) -> Optional[DataMessage]:
        """Release at most one deliverable message, updating layer state for
        that message only.

        The member pumps this in a loop, delivering to the application
        between releases, so any message the application *sends from a
        delivery callback* is stamped against exactly the deliveries the
        application has actually observed — not against a whole batch the
        layer had already accounted internally.  (Found by the hypothesis
        suite: a reaction multicast mid-batch otherwise claims causal
        dependence on messages delivered after it locally.)
        """
        return None

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

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        self._next: Dict[str, int] = {}
        self._queued: Dict[str, Dict[int, DataMessage]] = {}

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        # A process sends its own messages in seq order, so they are always
        # immediately deliverable locally.
        self._next[msg.sender] = msg.seq + 1
        return [msg]

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        sender = msg.sender
        expected = self._next.get(sender, 1)
        if msg.seq != expected:
            self._hold(msg)
            self._queued.setdefault(sender, {})[msg.seq] = msg
            return []
        out = [msg]
        self._next[sender] = msg.seq + 1
        queue = self._queued.get(sender, {})
        while self._next[sender] in queue:
            ready = queue.pop(self._next[sender])
            self._release(ready)
            out.append(ready)
            self._next[sender] = ready.seq + 1
        return out


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
    """

    name = "causal"

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

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        # Sender delivers its own multicast immediately: everything it
        # depends on was already delivered locally before the send.
        self.delivered.advance(msg.sender, msg.seq)
        return [msg]

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

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        self._hold(msg)
        if self._deliverable(msg):
            self._fast.append(msg)
        else:
            self._queue.append(msg)
        return []  # the member pumps release_next()

    def _commit_release(self, msg: DataMessage) -> DataMessage:
        self._release(msg)
        self.delivered.advance(msg.sender, msg.seq)
        return msg

    def release_next(self) -> Optional[DataMessage]:
        while self._fast:
            msg = self._fast.popleft()
            if self._deliverable(msg):
                return self._commit_release(msg)
            # Deliverability was invalidated after insertion (e.g. a view
            # change fast-forwarded ``delivered`` past it): fall back to the
            # delay queue, where it waits like any other held message.
            self._queue.append(msg)
        for queued in self._queue:
            if self._deliverable(queued):
                self._queue.remove(queued)
                return self._commit_release(queued)
        return None

    def drain(self) -> List[DataMessage]:
        """Release every queued message whose dependencies are now met.

        Used where per-message interleaving with application callbacks is
        not needed (e.g. feeding the sequencer's staging area).
        """
        out: List[DataMessage] = []
        released = self.release_next()
        while released is not None:
            out.append(released)
            released = self.release_next()
        return out

    def poke(self) -> List[DataMessage]:
        return self.drain()

    def on_join(self, merged_state: dict, final_counts: Dict[str, int]) -> None:
        # History counts as delivered: causal conditions start at the
        # view's frontier for a joiner.
        self.delivered.merge_in(final_counts)

    def forgive(self, ceiling: dict) -> None:
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


class TotalSequencerOrdering(OrderingLayer):
    """Fixed-sequencer total order, consistent with causality.

    Every member runs an inner causal layer.  The sequencer (the lowest pid
    of the current view) assigns global indices in the order messages clear
    *its* causal filter and multicasts :class:`OrderToken` assignments.
    Members deliver strictly in global-index order once both the message and
    its token have arrived — this also respects causality because the
    sequencer's assignment order is a causal order.
    """

    name = "total-seq"
    delays_local_delivery = True

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        #: How long a member waits for a missing order token before asking
        #: the sequencer to resend (lost-control-message repair), in the
        #: member's own time units: five NAK delays.
        self.token_repair_delay = 5.0 * member.nak_delay
        self._causal = CausalOrdering(member)
        self._ready: Dict[MsgId, DataMessage] = {}
        self._order: Dict[int, MsgId] = {}
        self._next_deliver = 0
        self._next_assign = 0
        self._repair_armed = False

    @property
    def is_sequencer(self) -> bool:
        return self.member.pid == self.member.sequencer_pid()

    def stamp(self, msg: DataMessage) -> None:
        self._causal.stamp(msg)

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        for ready in self._causal.accept_local(msg):
            self._stage(ready)
        return []  # the member pumps release_next()

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        self._hold(msg)
        self._causal.insert(msg)
        for ready in self._causal.drain():
            self._stage(ready)
        return []

    def on_control(self, src: str, payload: Any) -> List[DataMessage]:
        if isinstance(payload, OrderToken):
            for index, msg_id in payload.assignments:
                self._order[index] = msg_id
            return []
        if isinstance(payload, OrderTokenRequest):
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
            return []
        return []

    def _stage(self, msg: DataMessage) -> None:
        self._ready[msg.msg_id] = msg
        if msg.msg_id not in self.held_since:
            # Locally-originated messages also wait for their token.
            self._hold(msg)
        if self.is_sequencer:
            index = self._next_assign
            self._next_assign += 1
            self._order[index] = msg.msg_id
            token = OrderToken(
                group=self.member.group,
                sequencer=self.member.pid,
                assignments=[(index, msg.msg_id)],
            )
            self.member.broadcast_control(token)

    def release_next(self) -> Optional[DataMessage]:
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
        if not self._ready or self._next_deliver in self._order:
            return
        self.member.send_control(
            self.member.sequencer_pid(),
            OrderTokenRequest(
                group=self.member.group,
                requester=self.member.pid,
                from_index=self._next_deliver,
            ),
        )
        self._repair_armed = True
        self.member.set_timer(self.token_repair_delay * 2, self._request_repair)

    def poke(self) -> List[DataMessage]:
        for ready in self._causal.drain():
            self._stage(ready)
        return []  # the member pumps release_next()

    def pending(self) -> int:
        return len(self.held_since) + self._causal.pending()

    # -- view-change integration ---------------------------------------------------

    def flush_state(self, departed: set) -> dict:
        # Hand the whole assignment map over: a dead sequencer's assignments
        # must survive it, and the new sequencer continues from their top.
        return {"assignments": dict(self._order)}

    def on_view_install(self, merged_state: dict,
                        departed_counts: Dict[str, int]) -> None:
        for index, msg_id in merged_state.get("assignments", {}).items():
            self._order[index] = msg_id
        if self._order:
            self._next_assign = max(self._next_assign, max(self._order) + 1)
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
            # old sequencer died before assigning them).
            for ready in self._causal.drain():
                self._stage(ready)
            already = set(self._order.values())
            for msg_id in sorted(self._ready):
                if msg_id not in already:
                    index = self._next_assign
                    self._next_assign += 1
                    self._order[index] = msg_id
                    token = OrderToken(group=self.member.group,
                                       sequencer=self.member.pid,
                                       assignments=[(index, msg_id)])
                    self.member.broadcast_control(token)

    def on_join(self, merged_state: dict, final_counts: Dict[str, int]) -> None:
        self._causal.on_join(merged_state, final_counts)
        for index, msg_id in merged_state.get("assignments", {}).items():
            self._order[index] = msg_id
        if self._order:
            top = max(self._order)
            self._next_assign = max(self._next_assign, top + 1)
            self._next_deliver = top + 1  # history is not replayed to joiners


class TotalAgreedOrdering(OrderingLayer):
    """Decentralised agreed total order (ISIS ABCAST).

    Phase 1: every member proposes a priority for each new message (its
    local priority counter) back to the message's sender.  Phase 2: the
    sender commits the maximum proposal.  Messages deliver in
    (priority, proposer-pid) order once committed and at the queue head.

    The hold-back set is ``_pending`` (the dict every other method reads)
    plus ``_heap``, a ``heapq`` of ``(priority, tiebreak, msg_id)`` keys
    with lazy invalidation: :meth:`_rekey` pushes an entry's new key and
    leaves the old one behind, and :meth:`_drain` discards any head whose
    key is no longer its live entry's.  The heap therefore holds at most
    one stale key per re-key and empties whenever ``_pending`` does.

    A sender commits its own messages in seq order: a message whose
    proposals are all in waits in ``_ready`` while a lower own seq is still
    open, and goes out in the same tick as that predecessor's commit.  The
    wait never changes the agreed value, which the collected proposals
    already fix.  So a commit for seq ``k`` arriving from its sender is
    proof that every lower seq of that sender was committed and broadcast:
    ``proof_grace`` later (covering commits of one tick that arrive out of
    order), the receiver asks for each one still open here.  The fallback
    timer armed by :meth:`_drain` covers a sender's last message and lost
    requests or answers; it asks only for each sender's lowest open seq,
    since no higher one can have been committed before it.  ``_open``
    indexes the held, uncommitted seqs per sender for both rules.

    Per-message agreement state lives only as long as the agreement:
    ``_proposals``, ``_retries`` and ``_ready`` (the sender's side) and
    ``_asked`` (a receiver's commit requests) are dropped when the message
    commits.  ``_commit_values`` is the one record kept for good, and it
    has no bound: any member may be asked for a commit it applied long ago
    (a ``CommitRequest`` from a peer whose copy was lost), and the
    view-change flush hands a departed sender's commits to every survivor.

    Every repair deadline is in the member's own time units, a multiple of
    its ``nak_delay``, so one rule serves virtual time and seconds alike.
    """

    name = "total-agreed"
    delays_local_delivery = True

    #: Re-solicitations of believed-alive non-proposers before giving up.
    #: The first goes one ``proposal_timeout`` after the send; the wait then
    #: doubles up to four timeouts, so the sender commits without a silent
    #: member after 28 timeouts, 560 units at the default ``nak_delay``.
    #: While a higher own seq is open the wait does not double, because
    #: that successor's commit waits on this one: then the window is 9
    #: timeouts (180 units).
    #: A member that stays silent that long is treated as failed and the
    #: sender commits with the proposals it has: the view-synchronous escape
    #: hatch real implementations tie to membership changes.  Under message
    #: loss that can very rarely commit a priority below a survivor's
    #: tentative proposal; the loss-injection tests therefore assert
    #: liveness and causality, and the agreed-total-order consistency
    #: properties are asserted on loss-free networks.  The number of rounds,
    #: not the window, is what keeps a lossy link from forcing a commit: at
    #: 15% loss each round fails about 28% of the time.
    max_proposal_retries = 8

    def __init__(self, member: "GroupMember") -> None:
        super().__init__(member)
        nak_delay = member.nak_delay
        #: How long the sender waits for missing proposals (a lost proposal
        #: or data message, or a crashed member) before re-soliciting them.
        self.proposal_timeout = 4.0 * nak_delay
        #: How long a member holds a sender's lowest open message, while
        #: another sender's message blocks its delivery head, before the
        #: fallback timer asks for the (possibly lost) commit; twice this
        #: between fallback asks for the same message.
        self.commit_repair_delay = 6.0 * nak_delay
        #: How long after a sender's commit for seq k a member asks for
        #: that sender's lower seqs still open here; twice this between
        #: asks for the same message on fresh proof.
        self.proof_grace = nak_delay
        self._max_priority = 0
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
        #: msg_id -> when this member last sent a CommitRequest for it
        self._asked: Dict[MsgId, float] = {}
        self._repair_armed = False
        #: commits made without a believed-alive member's proposal
        self.proposals_forced = 0

    def stamp(self, msg: DataMessage) -> None:
        pass  # priorities travel in control messages, not on the data message

    def accept_local(self, msg: DataMessage) -> List[DataMessage]:
        self._note_message(msg)
        own_priority = self._propose()
        self._rekey(msg.msg_id, own_priority, self.member.pid)
        self._record_proposal(msg.msg_id, self.member.pid, own_priority)
        self.member.set_timer(self.proposal_timeout, self._finalize_on_timeout, msg.msg_id)
        return self._drain()

    def insert(self, msg: DataMessage) -> List[DataMessage]:
        agreed = self._commit_values.get(msg.msg_id)
        self._note_message(msg, committed=agreed is not None)
        if agreed is not None:
            # The commit overtook its data (the sender finalised without us
            # while it suspected us).  Take the agreed place and propose
            # nothing: an uncommitted entry here could never be completed,
            # because _apply_commit ignores ids it has already recorded.
            self._rekey(msg.msg_id, *agreed)
            return self._drain()
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
        return self._drain()

    def on_control(self, src: str, payload: Any) -> List[DataMessage]:
        if isinstance(payload, PriorityProposal):
            self._record_proposal(payload.msg_id, payload.proposer, payload.priority)
            return self._drain()
        if isinstance(payload, PriorityCommit):
            msg_id = payload.msg_id
            self._apply_commit(msg_id, payload.priority, payload.tiebreak)
            if src == msg_id[0]:
                # Only the sender's own commit proves its lower seqs were
                # committed; another member's answer proves nothing of it.
                seqs = self._open.get(src)
                if seqs and seqs[0] < msg_id[1]:
                    self.member.set_timer(self.proof_grace, self._ask_on_proof, msg_id)
            return self._drain()
        if isinstance(payload, CommitRequest):
            cached = self._commit_values.get(payload.msg_id)
            if cached is not None:
                self.member.send_control(
                    payload.requester,
                    PriorityCommit(
                        group=self.member.group,
                        sender=self.member.pid,
                        msg_id=payload.msg_id,
                        priority=cached[0],
                        tiebreak=cached[1],
                    ),
                )
            return []
        if isinstance(payload, ProposalRequest):
            return self._answer_proposal_request(src, payload)
        return []

    def _answer_proposal_request(self, src: str, request: ProposalRequest) -> List[DataMessage]:
        msg = request.msg
        fresh = self.stack.receive_data(src, msg)
        if fresh is not None:
            # We never saw the data; process it normally (which proposes).
            return self.insert(fresh)
        cached = self._commit_values.get(msg.msg_id)
        if cached is not None:
            # Already committed here; the sender must have the commit too,
            # so nothing useful to add.
            return []
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
        return []

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
        order.  The key it had stays in the heap until ``_drain`` sheds it."""
        entry = self._pending[msg_id]
        entry[1] = priority
        entry[2] = tiebreak
        heappush(self._heap, (priority, tiebreak, msg_id))

    def _propose(self) -> int:
        self._max_priority += 1
        entry = self._max_priority
        return entry

    def _record_proposal(self, msg_id: MsgId, proposer: str, priority: int) -> None:
        if msg_id in self._commit_values:
            return
        box = self._proposals.setdefault(msg_id, {})
        box[proposer] = priority
        if msg_id in self._pending and self._pending[msg_id][0].sender == self.member.pid:
            members = self.member.view_members
            # The length test settles every proposal but the last one
            # without building a set.
            if len(box) >= len(members) and box.keys() >= set(members):
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
        for msg in self._drain():
            self.member._deliver(msg)

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
            commit = PriorityCommit(
                group=member.group,
                sender=member.pid,
                msg_id=msg_id,
                priority=agreed,
                tiebreak=tiebreak,
            )
            member.broadcast_control(commit)
            self._apply_commit(msg_id, agreed, tiebreak)
            if not own:
                return
            msg_id = (member.pid, own[0])
            if msg_id not in self._ready:
                return

    def _apply_commit(self, msg_id: MsgId, priority: int, tiebreak: str) -> None:
        if msg_id in self._commit_values:
            return
        self._commit_values[msg_id] = (priority, tiebreak)
        # Every reader of these maps returns early on a committed id, so the
        # agreement's working state dies here.
        self._proposals.pop(msg_id, None)
        self._retries.pop(msg_id, None)
        self._asked.pop(msg_id, None)
        if priority > self._max_priority:
            self._max_priority = priority
        if msg_id in self._pending:
            self._pending[msg_id][3] = True
            self._close(msg_id)
            self._rekey(msg_id, priority, tiebreak)

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

    def _drain(self) -> List[DataMessage]:
        out: List[DataMessage] = []
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
                break
            heappop(heap)
            del pending[head_id]
            self._release(entry[0])
            out.append(entry[0])
        return out

    def poke(self) -> List[DataMessage]:
        return self._drain()

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
        # Apply every commit any survivor knew about.
        for msg_id, (priority, tiebreak) in merged_state.get("commits", {}).items():
            self._apply_commit(msg_id, priority, tiebreak)
        # Uncommitted messages from departed senders never reached agreement
        # (no survivor holds a commit): the sender died mid-protocol, so the
        # message is dropped everywhere — atomic, not durable (Section 2).
        for msg_id in list(self._pending):
            msg, _priority, _tiebreak, committed = self._pending[msg_id]
            if not committed and msg_id[0] in departed_counts:
                del self._pending[msg_id]
                self._close(msg_id)
                self._asked.pop(msg_id, None)
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
            asked = self._asked.get((sender, lower))
            if asked is None or now - asked >= 2 * self.proof_grace:
                self._ask((sender, lower))

    def _request_commit_repair(self) -> None:
        """Ask for each other sender's lowest open seq whose commit is
        overdue, then re-arm through :meth:`_drain` if the head is still
        blocked."""
        self._repair_armed = False
        member = self.member
        now = member.sim.now
        for sender in sorted(self._open):
            msg_id = (sender, self._open[sender][0])
            if sender != member.pid and self._commit_due(msg_id) <= now:
                self._ask(msg_id)
        for msg in self._drain():
            member._deliver(msg)

    def layer_metrics(self) -> Dict[str, Any]:
        data = super().layer_metrics()
        data["proposals_forced"] = self.proposals_forced
        return data


for _cls in (RawOrdering, FifoOrdering, CausalOrdering,
             TotalSequencerOrdering, TotalAgreedOrdering):
    register_layer(_cls)
