"""Direct unit tests of the ordering disciplines (no network).

A stub member lets us feed messages in arbitrary orders and observe exactly
what each layer releases.  ``released(layer)`` pumps ``release_next`` the way
the member's ``deliver_ready`` does after every event.
"""

from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catocs import build_group
from repro.catocs.messages import (
    CommitRequest,
    DataMessage,
    OrderToken,
    PriorityCommit,
    PriorityProposal,
)
from repro.catocs.ordering_layers import (
    CausalOrdering,
    FifoOrdering,
    RawOrdering,
    TotalAgreedOrdering,
    TotalSequencerOrdering,
)
from repro.obs import MetricsRegistry
from repro.ordering.dense import bss_deliverable
from repro.sim import LinkModel, Network, Simulator


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.scheduled = []
        self.metrics = MetricsRegistry("sim")

    def call_later(self, delay, fn, *args):
        self.scheduled.append((delay, fn, args))


class FakeMember:
    #: ``GroupMember``'s default; a test that needs another sets its own.
    nak_delay = 5.0
    #: the layer under test, for a timer that delivers through the member
    ordering = None

    def __init__(self, pid="me", members=("me", "p1", "p2")):
        self.pid = pid
        self.group = "g"
        self.view_members = tuple(members)
        self.sim = FakeSim()
        self.sent: List[Tuple[str, Any]] = []
        self.broadcasts: List[Any] = []
        self.delivered: List[Any] = []

    def sequencer_pid(self):
        return min(self.view_members)

    def believes_alive(self, pid):
        return True

    def send_control(self, dst, payload):
        self.sent.append((dst, payload))

    def broadcast_control(self, payload):
        self.broadcasts.append(payload)

    def set_timer(self, delay, fn, *args):
        self.sim.scheduled.append((delay, fn, args))

    def deliver_ready(self):
        self.delivered.extend(released(self.ordering))


def released(layer):
    """Every message ``layer`` releases now, in release order."""
    out = []
    msg = layer.release_next()
    while msg is not None:
        out.append(msg)
        msg = layer.release_next()
    return out


def clock(layer, counts):
    """A stamp in ``layer``'s clock domain, as a sender of its group makes."""
    return layer._domain.clock(counts)


def data(sender, seq, vc=None, payload=None):
    return DataMessage(group="g", sender=sender, seq=seq,
                       payload=payload or f"{sender}#{seq}",
                       sent_at=0.0, vc=vc)


def test_raw_delivers_immediately_any_order():
    layer = RawOrdering(FakeMember())
    m2 = data("p1", 2)
    m1 = data("p1", 1)
    layer.insert(m2)
    assert released(layer) == [m2]
    layer.insert(m1)
    assert released(layer) == [m1]
    assert layer.pending() == 0


def test_fifo_holds_gap_then_releases_in_order():
    layer = FifoOrdering(FakeMember())
    m1, m2, m3 = data("p1", 1), data("p1", 2), data("p1", 3)
    layer.insert(m3)
    assert released(layer) == []
    layer.insert(m2)
    assert released(layer) == []
    assert layer.pending() == 2
    layer.insert(m1)
    assert released(layer) == [m1, m2, m3]
    assert layer.pending() == 0


def test_fifo_senders_independent():
    layer = FifoOrdering(FakeMember())
    a2 = data("p1", 2)
    b1 = data("p2", 1)
    layer.insert(a2)
    assert released(layer) == []
    layer.insert(b1)
    assert released(layer) == [b1]


def test_fifo_local_messages_always_deliverable():
    layer = FifoOrdering(FakeMember())
    mine = data("me", 1)
    layer.accept_local(mine)
    assert released(layer) == [mine]


def test_causal_stamp_counts_own_multicasts():
    member = FakeMember()
    layer = CausalOrdering(member)
    m1 = data("me", 1)
    layer.stamp(m1)
    layer.accept_local(m1)
    m2 = data("me", 2)
    layer.stamp(m2)
    assert m1.vc.as_dict() == {"me": 1}
    assert m2.vc.as_dict() == {"me": 2}


def test_causal_delivery_condition_waits_for_dependency():
    layer = CausalOrdering(FakeMember())
    # p2's message depends on p1's first (p2 delivered it before sending)
    dependent = data("p2", 1, vc=clock(layer, {"p1": 1, "p2": 1}))
    first = data("p1", 1, vc=clock(layer, {"p1": 1}))
    layer.insert(dependent)
    assert released(layer) == []
    assert layer.pending() == 1
    layer.insert(first)
    assert released(layer) == [first, dependent]
    assert layer.pending() == 0


def test_causal_same_sender_fifo():
    layer = CausalOrdering(FakeMember())
    m1 = data("p1", 1, vc=clock(layer, {"p1": 1}))
    m2 = data("p1", 2, vc=clock(layer, {"p1": 2}))
    layer.insert(m2)
    assert released(layer) == []
    layer.insert(m1)
    assert released(layer) == [m1, m2]


def test_causal_concurrent_messages_deliver_on_arrival():
    layer = CausalOrdering(FakeMember())
    x = data("p1", 1, vc=clock(layer, {"p1": 1}))
    y = data("p2", 1, vc=clock(layer, {"p2": 1}))
    layer.insert(y)
    assert layer.release_next() == y
    layer.insert(x)
    assert layer.release_next() == x
    assert layer.release_next() is None


def test_causal_hold_log_tracks_delay():
    member = FakeMember()
    layer = CausalOrdering(member)
    dependent = data("p2", 1, vc=clock(layer, {"p1": 1, "p2": 1}))
    layer.insert(dependent)
    released(layer)
    member.sim.now = 42.0
    first = data("p1", 1, vc=clock(layer, {"p1": 1}))
    layer.insert(first)
    released(layer)
    held = dict(layer.hold_log)
    assert held[("p2", 1)] == 42.0


def test_causal_forgive_unblocks_lost_dependency():
    layer = CausalOrdering(FakeMember())
    # depends on p1's msg 2, but p1 crashed and nobody has anything from p1
    orphan = data("p2", 1, vc=clock(layer, {"p1": 2, "p2": 1}))
    layer.insert(orphan)
    assert released(layer) == []
    layer.forgive({"p1": 0})
    assert released(layer) == [orphan]


def test_causal_forgive_does_not_skip_recoverable_dependency():
    layer = CausalOrdering(FakeMember())
    orphan = data("p2", 1, vc=clock(layer, {"p1": 1, "p2": 1}))
    layer.insert(orphan)
    # someone still holds p1's message 1: keep waiting for the repair
    layer.forgive({"p1": 1})
    assert released(layer) == []
    first = data("p1", 1, vc=clock(layer, {"p1": 1}))
    layer.insert(first)
    assert released(layer) == [first, orphan]


_CLOCK_PIDS = ("me", "p1", "p2", "gone")  # "gone" joins the domain late, as a joiner would
_clock = st.fixed_dictionaries({pid: st.integers(min_value=0, max_value=3) for pid in _CLOCK_PIDS})


def _near(values):
    """Per pid, an offset from a base clock: mostly on it, so that whole
    stamps are deliverable often enough for one waived component to decide."""
    return st.fixed_dictionaries({}, optional={pid: st.sampled_from(values) for pid in _CLOCK_PIDS})


def _per_component_deliverable(layer, msg):
    """``CausalOrdering._deliverable`` as it stood: once a ceiling exists,
    every component goes through ``_required``, waived or not."""
    sender, vc, delivered = msg.sender, msg.vc, layer.delivered
    if delivered[sender] < layer._required(sender, vc[sender] - 1):
        return False
    if vc[sender] <= delivered[sender]:
        return False
    return all(pid == sender or delivered[pid] >= layer._required(pid, vc[pid])
               for pid in vc)


@settings(max_examples=500, deadline=None)
@given(delivered=_clock, ahead=_near([0, 0, 0, -1, 1, 2]), ceilings=st.lists(
           _near([0, 0, -1, 1]), min_size=1, max_size=2),
       sender=st.sampled_from(_CLOCK_PIDS))
def test_causal_flat_test_is_taken_only_where_the_ceiling_waives_nothing(
        delivered, ahead, ceilings, sender):
    layer = CausalOrdering(FakeMember())
    layer.delivered.merge_in(delivered)
    for offsets in ceilings:  # a second view change merges into the first
        layer.forgive({pid: max(0, delivered[pid] + off) for pid, off in offsets.items()})
    stamp = {pid: max(0, count + ahead.get(pid, 0)) for pid, count in delivered.items()}
    stamp[sender] += 1
    vc = clock(layer, stamp)
    msg = data(sender, vc[sender], vc=vc)
    assert layer._deliverable(msg) == _per_component_deliverable(layer, msg)


def test_causal_returns_to_the_flat_test_after_a_view_change(monkeypatch):
    from repro.catocs import ordering_layers

    flat = []
    monkeypatch.setattr(
        ordering_layers, "bss_deliverable",
        lambda vc, delivered, sender: flat.append(sender) or bss_deliverable(
            vc, delivered, sender))
    layer = CausalOrdering(FakeMember())
    layer.forgive({"p1": 1})
    # depends on nothing beyond the ceiling: the flat test decides
    layer.insert(data("p2", 1, vc=clock(layer, {"p1": 1, "p2": 1})))
    assert flat == ["p2"]
    # depends on p1#2, which was lost with p1: only the waiver delivers it
    orphan = data("p2", 2, vc=clock(layer, {"p1": 2, "p2": 2}))
    layer.delivered.merge_in({"p1": 1, "p2": 1})
    layer.insert(orphan)
    assert flat == ["p2"]
    assert released(layer) == [orphan]


def test_sequencer_assigns_and_gates_delivery():
    member = FakeMember(pid="a", members=("a", "b", "c"))  # "a" is sequencer
    layer = TotalSequencerOrdering(member)
    m = data("a", 1)
    layer.stamp(m)
    layer.accept_local(m)
    # the member pump releases it at once (self-assigned index 0)
    assert released(layer) == [m]
    assert member.broadcasts and isinstance(member.broadcasts[0], OrderToken)


def test_non_sequencer_waits_for_token():
    member = FakeMember(pid="b", members=("a", "b", "c"))
    layer = TotalSequencerOrdering(member)
    m = data("b", 1)
    layer.stamp(m)
    layer.accept_local(m)
    assert released(layer) == []  # own message gated by global order
    token = OrderToken(group="g", sequencer="a", assignments=[(0, ("b", 1))])
    layer.on_control("a", token)
    assert released(layer) == [m]


def test_token_before_data_waits_for_data():
    member = FakeMember(pid="b", members=("a", "b", "c"))
    layer = TotalSequencerOrdering(member)
    token = OrderToken(group="g", sequencer="a", assignments=[(0, ("c", 1))])
    layer.on_control("a", token)
    assert released(layer) == []
    m = data("c", 1, vc=clock(layer, {"c": 1}))
    layer.insert(m)
    assert released(layer) == [m]


def test_sequencer_serves_token_repair_requests():
    member = FakeMember(pid="a", members=("a", "b"))
    layer = TotalSequencerOrdering(member)
    m = data("a", 1)
    layer.stamp(m)
    layer.accept_local(m)
    released(layer)  # the sequencer assigns index 0 as it releases
    from repro.catocs.messages import OrderTokenRequest

    layer.on_control("b", OrderTokenRequest(group="g", requester="b", from_index=0))
    resent = [p for (dst, p) in member.sent if isinstance(p, OrderToken)]
    assert resent and resent[0].assignments == [(0, ("a", 1))]


def test_sequencer_pending_counts_a_causally_blocked_message_once():
    """Figure 1 on ``total-seq``: b reacts to a's "cause", and the reaction
    reaches c long before the cause does.  c holds one message, and holds
    it once."""
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=5.0))
    net.set_link("a", "c", LinkModel(latency=30.0))
    group = build_group(sim, net, ["a", "b", "c"], ordering="total-seq")
    group["b"].on_deliver = (
        lambda src, payload, msg: payload == "cause" and group["b"].multicast("effect"))
    group["a"].multicast("cause")
    sim.run(until=12.0)
    c = group["c"].stack.ordering
    assert list(c.held_since) == [("b", 1)]
    assert c.pending() == 1
    sim.run(until=100.0)
    assert group["c"].delivered_payloads() == ["cause", "effect"]
    assert c.pending() == 0


def test_sequencer_registers_no_causal_series():
    """total-seq inherits its causal filter instead of nesting a causal
    layer, so its members publish ordering series under their own
    discipline only."""
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=5.0))
    build_group(sim, net, ["a", "b", "c"], ordering="total-seq")
    snapshot = sim.metrics.snapshot()
    series = [key for kind in ("counters", "gauges", "histograms")
              for key in snapshot[kind]]
    assert any("discipline=total-seq" in key for key in series)
    assert not [key for key in series if "discipline=causal" in key]


def test_agreed_order_basic_two_member_flow():
    # sender side
    sender = FakeMember(pid="a", members=("a", "b"))
    layer_a = TotalAgreedOrdering(sender)
    m = data("a", 1)
    layer_a.stamp(m)
    layer_a.accept_local(m)
    assert released(layer_a) == []  # waits for b's proposal
    # receiver side proposes
    receiver = FakeMember(pid="b", members=("a", "b"))
    layer_b = TotalAgreedOrdering(receiver)
    layer_b.insert(m)
    assert released(layer_b) == []
    proposals = [p for (dst, p) in receiver.sent if isinstance(p, PriorityProposal)]
    assert proposals and proposals[0].msg_id == ("a", 1)
    # sender collects the proposal -> commits -> delivers
    layer_a.on_control("b", proposals[0])
    assert released(layer_a) == [m]
    commits = [p for p in sender.broadcasts if isinstance(p, PriorityCommit)]
    assert commits
    # receiver applies the commit -> delivers in the same position
    layer_b.on_control("a", commits[0])
    assert released(layer_b) == [m]


def test_agreed_order_uncommitted_head_blocks():
    member = FakeMember(pid="c", members=("a", "b", "c"))
    layer = TotalAgreedOrdering(member)
    m1 = data("a", 1)
    m2 = data("b", 1)
    layer.insert(m1)
    layer.insert(m2)
    # commit only the second-arrived message with a HIGH priority: the
    # first (tentative, lower priority) still blocks the queue head.
    layer.on_control("b", PriorityCommit(group="g", sender="b",
                                         msg_id=("b", 1), priority=10,
                                         tiebreak="c"))
    assert released(layer) == []
    layer.on_control("a", PriorityCommit(group="g", sender="a",
                                         msg_id=("a", 1), priority=11,
                                         tiebreak="c"))
    assert [o.msg_id for o in released(layer)] == [("b", 1), ("a", 1)]


def test_agreed_order_commit_that_overtakes_its_data_still_delivers():
    """Liveness regression: commit, then the data, then the commit-repair
    answer.  The late data used to become an uncommitted entry with a fresh
    proposal, and the repair answer was ignored as already committed."""
    member = FakeMember(pid="c", members=("a", "b", "c"))
    layer = TotalAgreedOrdering(member)
    m = data("a", 1)
    commit = PriorityCommit(group="g", sender="a", msg_id=("a", 1),
                            priority=4, tiebreak="b")
    layer.on_control("a", commit)
    assert released(layer) == []  # nothing to place yet
    layer.insert(m)
    assert released(layer) == [m]  # takes the agreed place at once
    assert member.sent == []  # and proposes nothing: agreement is over
    layer.on_control("a", commit)
    assert released(layer) == []  # the repair answer is a no-op
    assert layer._pending == {} and layer._heap == []
    assert layer.pending() == 0


def _repair_timers(member):
    return [(delay, fn) for delay, fn, _ in member.sim.scheduled
            if fn.__name__ == "_request_commit_repair"]


def _commit_requests(member):
    return [(dst, p.msg_id) for dst, p in member.sent if isinstance(p, CommitRequest)]


def test_agreed_order_deadlines_are_multiples_of_the_nak_delay():
    member = FakeMember()
    member.nak_delay = 0.02  # seconds, as a socket host runs it
    layer = TotalAgreedOrdering(member)
    assert layer.proposal_timeout == pytest.approx(0.08)
    assert layer.commit_repair_delay == pytest.approx(0.12)
    assert TotalSequencerOrdering(member).token_repair_delay == pytest.approx(0.1)
    sim = Simulator(seed=1)
    group = build_group(sim, Network(sim, LinkModel()), ["a", "b"],
                        ordering="total-agreed")
    default = group["a"].stack.ordering
    assert (default.proposal_timeout, default.commit_repair_delay) == (20.0, 30.0)


def test_agreed_order_asks_for_a_lost_commit_once_at_its_due_time():
    member = FakeMember(pid="c", members=("a", "b", "c"))
    layer = member.ordering = TotalAgreedOrdering(member)
    member.sim.now = 4.0
    layer.insert(data("a", 1))  # a's commit for it is lost
    assert released(layer) == []
    [(delay, fire)] = _repair_timers(member)
    assert delay == layer.commit_repair_delay  # due 30 after it was held
    assert _commit_requests(member) == []
    member.sim.now += delay
    fire()
    assert _commit_requests(member) == [("a", ("a", 1))]
    assert member.broadcasts == []  # a is not suspected: ask a alone
    assert layer._asked == {("a", 1): 34.0}
    # Still blocked: re-armed for twice the delay after the ask.
    assert _repair_timers(member)[-1][0] == 2 * layer.commit_repair_delay
    layer.on_control("a", PriorityCommit(group="g", sender="a", msg_id=("a", 1),
                                         priority=3, tiebreak="b"))
    assert [m.msg_id for m in released(layer)] == [("a", 1)]
    assert layer._asked == {}
    member.sim.now += 2 * layer.commit_repair_delay
    _repair_timers(member)[-1][1]()  # the re-armed timer finds nothing to ask
    assert _commit_requests(member) == [("a", ("a", 1))]


def test_agreed_order_asks_only_once_the_lost_commit_blocks_the_head():
    """Behind this member's own uncommitted message a lost commit costs
    nothing, so nobody is asked; once it blocks the head it is overdue and
    is asked for at once.  The member never asks for its own message."""
    member = FakeMember(pid="me", members=("me", "a", "b"))
    layer = member.ordering = TotalAgreedOrdering(member)
    own = data("me", 1)
    layer.accept_local(own)  # tentative priority 1: the head
    assert released(layer) == []
    member.sim.now = 1.0
    theirs = data("a", 1)
    layer.insert(theirs)  # tentative priority 2; a's commit will be lost
    assert released(layer) == []
    assert _repair_timers(member) == []  # the head is ours: nobody owes us
    member.sim.now = 50.0
    for proposer, priority in (("a", 5), ("b", 6)):
        layer.on_control(proposer, PriorityProposal(
            group="g", proposer=proposer, msg_id=own.msg_id, priority=priority))
        assert released(layer) == []
    # Ours commits at 6 and now waits behind theirs, due since t = 31.
    [(delay, fire)] = _repair_timers(member)
    assert delay == 0.0
    fire()
    assert _commit_requests(member) == [("a", ("a", 1))]
    layer.on_control("a", PriorityCommit(group="g", sender="a", msg_id=("a", 1),
                                         priority=3, tiebreak="b"))
    assert released(layer) == [theirs, own]
    assert not any(isinstance(p, CommitRequest) for p in member.broadcasts)


# -- heap-ordered hold-back set vs. a min()-over-dict model ---------------------------

_IDS = [(sender, seq) for sender in ("a", "b", "me") for seq in (1, 2, 3)]
_PIDS = ("a", "b", "me")

_agreed_steps = st.one_of(
    st.tuples(st.just("data"), st.sampled_from(_IDS)),
    st.tuples(st.just("proposal"), st.sampled_from(_IDS),
              st.sampled_from(_PIDS), st.integers(1, 12)),
    st.tuples(st.just("commit"), st.sampled_from(_IDS),
              st.integers(1, 12), st.sampled_from(_PIDS)),
    st.tuples(st.just("view_drop"), st.sampled_from(("a", "b"))),
    st.tuples(st.just("pump")),
)


def _min_scan_head(pending):
    """The release rule the heap replaced: the entry with the least
    (priority, tiebreak, id) goes next, unless it is uncommitted."""
    if not pending:
        return None
    head = min(pending, key=lambda mid: (pending[mid][1], pending[mid][2], mid))
    return pending[head][0] if pending[head][3] else None


@settings(max_examples=300, deadline=None)
@given(st.lists(_agreed_steps, min_size=1, max_size=40))
def test_agreed_order_heap_releases_exactly_what_a_min_scan_would(program):
    member = FakeMember(pid="me", members=_PIDS)
    layer = member.ordering = TotalAgreedOrdering(member)
    heap_release = layer.release_next

    def checked_release():
        expected = _min_scan_head(layer._pending)
        got = heap_release()
        assert got == expected
        return got

    layer.release_next = checked_release  # every release is compared
    for step in program:
        if step[0] == "data":
            msg = data(*step[1])
            (layer.accept_local if msg.sender == "me" else layer.insert)(msg)
        elif step[0] == "proposal":
            _, msg_id, proposer, priority = step
            layer.on_control(proposer, PriorityProposal(
                group="g", proposer=proposer, msg_id=msg_id, priority=priority))
        elif step[0] == "commit":
            _, msg_id, priority, tiebreak = step
            layer.on_control(msg_id[0], PriorityCommit(
                group="g", sender=msg_id[0], msg_id=msg_id,
                priority=priority, tiebreak=tiebreak))
        elif step[0] == "view_drop":
            layer.on_view_install({}, {step[1]: 0})
        released(layer)  # what the member does after every event
        # Every held entry's live key is in the heap, and the heap empties
        # with the hold-back set (stale keys do not outlive it).
        keys = set(layer._heap)
        for msg_id, (_msg, priority, tiebreak, _done) in layer._pending.items():
            assert (priority, tiebreak, msg_id) in keys
        if not layer._pending:
            assert layer._heap == []
