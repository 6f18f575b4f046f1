"""Tests for the reliable group transport: dedup, NAK repair, stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.catocs import build_group, build_member
from repro.catocs.messages import AckGossip, AckQuery, DataMessage, Nak
from repro.catocs.transport import StabilityLayer
from repro.experiments.e16_stability import _run as e16_run
from repro.sim import FailureInjector, LinkModel, Network, Simulator


def build(seed=0, drop=0.0, n=3, ordering="raw", **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0, drop_prob=drop))
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering=ordering, **kwargs)
    return sim, net, members


def test_all_members_receive_all_messages_lossless():
    sim, net, members = build()
    for i in range(5):
        sim.call_at(float(i * 10), members["p0"].multicast, f"m{i}")
    sim.run(until=1000)
    for member in members.values():
        assert sorted(member.delivered_payloads()) == [f"m{i}" for i in range(5)]


def test_loss_is_repaired_via_nak():
    sim, net, members = build(seed=7, drop=0.25)
    for i in range(20):
        sim.call_at(float(i * 10), members["p0"].multicast, f"m{i:02d}")
    sim.run(until=10_000)
    for member in members.values():
        assert sorted(member.delivered_payloads()) == [f"m{i:02d}" for i in range(20)]
    total_retransmissions = sum(m.stack.layer("dedup").retransmissions
                                for m in members.values())
    assert total_retransmissions > 0


def test_duplicates_are_filtered():
    sim, net, members = build(seed=2, drop=0.3)
    for i in range(15):
        sim.call_at(float(i * 10), members["p1"].multicast, i)
    sim.run(until=10_000)
    for member in members.values():
        payloads = member.delivered_payloads()
        assert len(payloads) == len(set(payloads)) == 15


def test_stability_trims_buffers():
    sim, net, members = build(ack_period=15.0)
    for i in range(10):
        sim.call_at(float(i * 5), members["p0"].multicast, i)
    sim.run(until=5000)
    for member in members.values():
        stability = member.stack.layer("stability")
        assert len(stability.buffer) == 0, member.pid
        assert stability.peak_buffered > 0


def test_buffers_grow_without_stability_gossip():
    # With gossip disabled and only one sender, receivers learn nothing
    # about each other's receipt state, so nothing ever becomes stable.
    sim, net, members = build(ack_period=0.0)
    for i in range(10):
        sim.call_at(float(i * 5), members["p2"].multicast, i)
    sim.run(until=2000)
    assert all(len(m.stack.layer("stability").buffer) == 10 for m in members.values())


def test_repair_from_peer_when_sender_crashed():
    sim, net, members = build(seed=4, n=3, ack_period=10.0)
    injector = FailureInjector(sim, net)
    # p0 multicasts; the copy to p2 is lost (we force it by partitioning p2
    # away just for the send), then p0 crashes.  p2 must fetch from p1.
    net.partition({"p0", "p1"}, {"p2"})
    sim.call_at(1.0, members["p0"].multicast, "precious")
    sim.call_at(10.0, net.heal)
    injector.crash_at(12.0, "p0")
    # p1 suspects p0 so the NAK goes to p1 (manual suspicion, no detector).
    sim.call_at(13.0, members["p2"].suspect, "p0")
    sim.run(until=5000)
    assert members["p2"].delivered_payloads() == ["precious"]


def test_a_chase_nobody_can_serve_is_counted_not_silent():
    # m2 reaches nobody, m3 reaches everyone, then p0 crashes.  p2 suspects
    # p0 and knows p1 lacks m2: its chase has no target and stops.  p1 does
    # not suspect p0 and NAKs it every round until the horizon.
    sim, net, members = build(n=3, ack_period=10.0)
    for dst in ("p1", "p2"):
        sim.call_at(1.5, net.set_link, "p0", dst, LinkModel(latency=5.0, drop_prob=1.0))
        sim.call_at(2.5, net.set_link, "p0", dst, LinkModel(latency=5.0))
    for k, at in enumerate((1.0, 2.0, 3.0), start=1):
        sim.call_at(at, members["p0"].multicast, f"m{k}")
    sim.call_at(4.0, members["p0"].crash)
    sim.call_at(4.0, members["p2"].suspect, "p0")
    sim.run(until=500)
    p1, p2 = (members[pid].stack.layer("dedup").layer_metrics() for pid in ("p1", "p2"))
    assert members["p2"].delivered_payloads() == ["m1", "m3"]
    assert (p2["naks_unroutable"], p2["naks_sent"], p2["nak_pending"]) == (1, 0, 0)
    assert p1["naks_unroutable"] == 0
    assert p1["nak_rounds_max"] == p1["naks_sent"] > 10


def test_fast_forward_never_lowers_a_count_and_chases_no_skipped_history():
    sim, net, members = build(n=3, ack_period=0.0)
    dedup = members["p2"].stack.layer("dedup")
    dedup.receive_up("p1", DataMessage(group="group", sender="p1", seq=1, payload=1,
                                       sent_at=0.0))
    dedup.fast_forward({"p0": 4, "p1": 0})
    assert dedup.contiguous["p0"] == dedup._max_seen["p0"] == 4
    assert dedup.contiguous["p1"] == dedup._max_seen["p1"] == 1  # not lowered
    # An ack vector naming the skipped history, then the next message after
    # it: nothing at or below the fast-forwarded counts is missing.
    dedup.learn_existence({"p0": 4, "p1": 1})
    dedup.receive_up("p0", DataMessage(group="group", sender="p0", seq=5, payload=5,
                                       sent_at=0.0))
    sim.run(until=100.0)
    assert dedup.contiguous["p0"] == 5
    assert dedup.layer_metrics()["naks_sent"] == 0 and not dedup._nak_pending


def test_metrics_shape():
    sim, net, members = build()
    sim.call_at(1.0, members["p0"].multicast, "x")
    sim.run(until=500)
    metrics = members["p1"].metrics()
    for key in ("buffered", "peak_buffered", "retransmissions", "naks_sent",
                "delivered", "multicasts_sent", "pending"):
        assert key in metrics
    assert metrics["delivered"] == 1


def test_peer_retransmission_does_not_corrupt_stability_matrix():
    """Regression: a peer serving a NAK for someone else's message must not
    publish its own receive counts under the original sender's identity —
    that overstated what slow members held, buffers were trimmed early, and
    messages became unrecoverable (everyone dropped them, nobody had them).
    """
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=5.0, jitter=4.0, drop_prob=0.15))
    pids = [f"p{i}" for i in range(6)]
    members = build_group(sim, net, pids, ordering="causal",
                          nak_delay=10.0, ack_period=30.0)
    for index, pid in enumerate(pids):
        for k in range(25):
            sim.call_at(1.0 + index * 2.0 + k * 12.0,
                        members[pid].multicast, {"n": k, "from": pid})
    sim.run(until=3500)
    expected = 6 * 25
    for member in members.values():
        assert len(member.delivered) == expected, (
            member.pid, len(member.delivered))
    # and nobody's view of anyone else's receive state may exceed reality
    for observer in members.values():
        for subject in members.values():
            for sender in pids:
                matrix = observer.stack.layer("stability").matrix
                believed = matrix.row(subject.pid).get(sender, 0)
                actual = subject.stack.layer("dedup").contiguous[sender]
                assert believed <= actual, (observer.pid, subject.pid, sender)


@pytest.fixture
def suppressed_while_buffered(monkeypatch):
    """Every gossip tick, checked: the layers whose tick stayed silent
    although their buffer held a message."""
    tick = StabilityLayer._gossip_tick
    offenders = []

    def checked(layer):
        buffered, quiet = bool(layer.buffer), layer.gossip_quiet
        tick(layer)
        if buffered and layer.gossip_quiet != quiet:
            offenders.append((layer.member.pid, layer.member.sim.now))

    monkeypatch.setattr(StabilityLayer, "_gossip_tick", checked)
    return offenders


def test_ack_vector_reveals_missing_final_message(suppressed_while_buffered):
    # The final message of a stream leaves no seq gap; peers must learn of it
    # through ack vectors (piggybacked or gossiped), NAK and repair.
    for ordering in ("raw", "causal", "total-agreed"):
        sim, net, members = build(seed=11, n=3, ordering=ordering, ack_period=20.0)
        for k in range(4):
            sim.call_at(1.0 + k, members["p0"].multicast, f"m{k}")
        # the final message, and whatever else p0 sends p2 before t=30, is lost
        sim.call_at(3.5, net.set_link, "p0", "p2", LinkModel(latency=5.0, drop_prob=1.0))
        sim.call_at(30.0, net.set_link, "p0", "p2", LinkModel(latency=5.0))
        sim.run(until=5000)
        assert members["p2"].delivered_payloads() == ["m0", "m1", "m2", "m3"], ordering
        assert members["p2"].stack.layer("dedup").naks_sent >= 1, ordering
        for member in members.values():
            assert not member.stack.layer("stability").buffer, (ordering, member.pid)
    assert suppressed_while_buffered == []


# -- silent once settled, answer when asked ------------------------------------------

def _wire_log(sim, net):
    """Every packet the network is handed from now on, as
    ``(time, src, dst, payload class name)``."""
    log = []
    send = net.send

    def logged(src, dst, payload, size=None):
        log.append((sim.now, src, dst, type(payload).__name__))
        return send(src, dst, payload, size)

    net.send = logged
    return log


def _settled_group(n=3):
    """p0 multicasts once at t=1 into an ``n``-member group gossiping every
    10 units; the group 100 units later, every buffer drained."""
    sim, net, members = build(n=n, ack_period=10.0)
    sim.call_at(1.0, members["p0"].multicast, "x")
    sim.run(until=100.5)
    for member in members.values():
        assert not member.stack.layer("stability").buffer, member.pid
    return sim, net, members


def test_a_settled_member_sends_nothing_in_100_ticks():
    sim, net, members = _settled_group()
    before = {pid: m.stack.layer("stability").layer_metrics() for pid, m in members.items()}
    log = _wire_log(sim, net)
    sim.run(until=1100.5)
    assert log == []
    for pid, member in members.items():
        after = member.stack.layer("stability").layer_metrics()
        assert after["gossip_sent"] == before[pid]["gossip_sent"], pid
        assert after["gossip_quiet"] == before[pid]["gossip_quiet"] + 100, pid


def _handed_in(gossip_class):
    """A settled 4-member group, its ticks stopped; p0 broadcasts one
    ``gossip_class`` with counts that are already known.  The packets that
    follow, and how many queries each member answered meanwhile."""
    sim, net, members = _settled_group(n=4)
    layers = {pid: m.stack.layer("stability") for pid, m in members.items()}
    for layer in layers.values():
        layer.ack_period = 1e9  # the tick at t=110 is the last
    sim.run(until=110.5)
    before = {pid: layer.gossip_answers for pid, layer in layers.items()}
    log = _wire_log(sim, net)
    counts = dict(members["p0"].stack.layer("dedup").contiguous)
    members["p0"].send_peers(gossip_class(group="group", sender="p0", ack_vector=counts))
    sim.run(until=300.0)
    return log, {pid: layer.gossip_answers - before[pid] for pid, layer in layers.items()}


def test_each_settled_peer_answers_a_query_once():
    log, answers = _handed_in(AckQuery)
    packets = [(src, dst, kind) for _, src, dst, kind in log]
    assert packets[:3] == [("p0", dst, "AckQuery") for dst in ("p1", "p2", "p3")]
    assert sorted(packets[3:]) == [(src, "p0", "AckGossip") for src in ("p1", "p2", "p3")]
    assert answers == {"p0": 0, "p1": 1, "p2": 1, "p3": 1}


def test_a_plain_ack_gossip_is_never_answered():
    log, answers = _handed_in(AckGossip)
    assert [(src, kind) for _, src, _, kind in log] == [("p0", "AckGossip")] * 3
    assert set(answers.values()) == {0}


def test_a_query_from_outside_the_view_is_not_answered():
    # a departed member's late query, or a datagram naming a stranger: the
    # network has no route to it, and its row is not in the matrix anyway
    sim, net, members = _settled_group()
    log = _wire_log(sim, net)
    layer = members["p1"].stack.layer("stability")
    answered = layer.gossip_answers
    layer.on_control("p9", AckQuery(group="group", sender="p9", ack_vector={"p0": 1}))
    sim.run(until=105.0)
    assert log == [] and layer.gossip_answers == answered


def test_a_view_install_makes_the_next_tick_send():
    # No traffic: the frontier never moves, so the rebuilt matrix's move
    # count (0) equals the one the last tick saw, and only the install
    # itself can make the next tick, at t=110, not quiet.
    sim, net, members = build(n=3, ack_period=10.0)
    sim.run(until=100.5)
    log = _wire_log(sim, net)
    members["p1"].stack.membership_changed(("p0", "p1", "p2"))
    sim.run(until=200.5)
    assert [(t, src, kind) for t, src, _, kind in log] == [
        (110.0, "p1", "AckGossip"), (110.0, "p1", "AckGossip"),
    ]


def test_a_member_holding_an_unstable_message_gossips_every_period():
    # p2 crashed unnoticed: p0's message never becomes stable, and neither
    # counts nor frontier move again, yet p0 and p1 must keep querying;
    # neither answers the other, since neither is settled.
    sim, net, members = build(n=3, ack_period=10.0)
    members["p2"].crash()
    sim.call_at(1.0, members["p0"].multicast, "x")
    sim.run(until=1000.5)
    for pid in ("p0", "p1"):
        layer = members[pid].stack.layer("stability")
        assert list(layer.buffer) == [("p0", 1)]
        assert (layer.gossip_sent, layer.gossip_quiet, layer.gossip_answers) == (100, 0, 0)
        assert type(layer._last_gossip) is AckQuery


def _settle(seed, ordering, drop_prob, n=8, stream=40, tail=2000.0):
    """A short round-robin stream through an ``n``-member group, then a long
    silent tail; the group at the horizon."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=drop_prob))
    pids = [f"p{i}" for i in range(n)]
    group = build_group(sim, net, pids, ordering=ordering)
    for k in range(stream):
        sim.call_at(1.0 + k, group[pids[k % n]].multicast, k)
    sim.run(until=stream + tail)
    return group


@pytest.mark.parametrize("drop_prob", [0.05, 0.15])
@pytest.mark.parametrize("ordering", ["causal", "total-agreed"])
def test_every_buffer_and_every_chase_drains_once_the_group_settles(
        ordering, drop_prob, suppressed_while_buffered):
    for seed in range(6):
        group = _settle(seed, ordering, drop_prob)
        for member in group.values():
            assert len(member.delivered) == 40, (seed, member.pid)
            stability = member.stack.layer("stability")
            assert not stability.buffer, (seed, member.pid)
            assert not member.stack.layer("dedup")._nak_pending, (seed, member.pid)
            assert stability.gossip_quiet > stability.gossip_sent, (seed, member.pid)
    assert suppressed_while_buffered == []


class SilentStability(StabilityLayer):
    """Silence without asking: gossip only while something is buffered or
    the counts moved since the last vector on the wire, and always as a
    plain ``AckGossip``, so no peer is ever asked to answer."""

    def _gossip_tick(self):
        counts = self._counts()
        if self.buffer or counts != self._acked:
            self.gossip_sent += 1
            self._acked = dict(counts)
            self.member.send_peers(AckGossip(
                group=self.member.group, sender=self.member.pid, ack_vector=self._acked))
        self.member.set_timer(self.ack_period, self._gossip_tick)


def _drain_after_one_lost_gossip(layer_class, n):
    """p0 multicasts once; the first gossip p1 sends to p0 is lost and no
    other packet is.  When p0's buffer drained, or None if it never did."""
    period = 20.0
    sim, net, members = build(n=n, ack_period=0.0)  # ticks armed below
    for member in members.values():
        layer = member.stack.layer("stability")
        layer.__class__ = layer_class
        layer.ack_period = period
        member.set_timer(period, layer._gossip_tick)
    lost = []
    send = net.send

    def lose_first_gossip(src, dst, payload, size=None):
        if not lost and (src, dst) == ("p1", "p0") and isinstance(payload, AckGossip):
            lost.append(sim.now)
            return None
        return send(src, dst, payload, size)

    net.send = lose_first_gossip
    drained = []
    members["p0"].stack.layer("stability").stable_hooks.append(
        lambda mid: drained.append(sim.now))
    sim.call_at(1.0, members["p0"].multicast, "x")
    sim.run(until=2000.0)
    assert lost == [period]
    return drained[0] if drained else None


@pytest.mark.parametrize("n", [2, 3])
def test_a_lost_gossip_is_made_good_within_one_period(n):
    """p1 sends no data, so its gossip is the only way p0 learns p1 holds
    p0's message.  Lose p1's first gossip to p0: p0's buffer must still
    drain within one period of the loss plus two link latencies.  With two
    members p1 is settled at once and answers the query p0 sent in the same
    tick; with three the lost packet is p1's own query, and p1's next tick
    has news (its frontier moved).

    The silent rule fails this: p1 goes quiet having put its counts on the
    wire once, nobody asks for them again, and p0 holds the message
    forever."""
    bound = 20.0 + 20.0 + 2 * 7.0  # the loss + one period + query and answer
    drained = _drain_after_one_lost_gossip(StabilityLayer, n)
    assert drained is not None and drained <= bound
    assert _drain_after_one_lost_gossip(SilentStability, n) is None


# -- byte accounting: the running total vs a brute-force sum -----------------------

PIDS = ["p0", "p1", "p2"]

_counts = st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3).map(
    lambda values: dict(zip(PIDS, values))
)
_buffer_op = st.tuples(
    st.just("buffer"),
    st.sampled_from(PIDS),                    # sender
    st.integers(min_value=1, max_value=5),    # seq: small, so ids collide and re-buffer
    st.integers(min_value=0, max_value=40),   # payload length -> a different size
    st.booleans(),                            # carries an ack vector?
)
_ack_op = st.tuples(st.just("ack"), st.sets(st.sampled_from(PIDS), min_size=1), _counts)
_view_op = st.tuples(st.just("view"), st.sets(st.sampled_from(PIDS[1:])), _counts)


def _stability_layer():
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=5.0))
    members = build_group(sim, net, PIDS, ordering="raw", ack_period=0.0)
    return members["p0"].stack.layer("stability"), members["p0"].stack.layer("dedup")


def _brute_force_frontier(matrix):
    return {s: min(matrix.row(pid)[s] for pid in matrix.pids) for s in matrix.pids}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_buffer_op, _ack_op, _view_op), min_size=1, max_size=40))
def test_running_byte_total_matches_brute_force_sum(ops):
    layer, dedup = _stability_layer()
    peak = 0
    for op in ops:
        if op[0] == "buffer":
            _, sender, seq, length, with_acks = op
            layer.buffer_message(DataMessage(
                group="group", sender=sender, seq=seq, payload="x" * length, sent_at=0.0,
                ack_vector=dict.fromkeys(PIDS, 0) if with_acks else None,
            ))
        elif op[0] == "ack":
            _, observers, counts = op
            for observer in sorted(observers):
                layer.absorb_ack_vector(observer, counts)
            layer.check_stability()
        else:
            _, others, counts = op
            dedup.contiguous.update(counts)  # the rebuilt matrix restarts from these
            layer.on_membership_changed(["p0", *sorted(others)])
        if op[0] != "buffer":  # both other ops end in check_stability
            frontier = _brute_force_frontier(layer.matrix)
            assert not [m for m in layer.buffer if m[1] <= frontier.get(m[0], 0)], op
        brute = sum(m.size_bytes() for m in layer.buffer.values())
        peak = max(peak, brute)
        assert layer.buffered_bytes() == brute, op
        assert layer.layer_metrics()["buffered_bytes"] == brute, op
        assert layer.peak_buffered_bytes == peak, op
        assert set(layer._entry_bytes) == set(layer.buffer), op


# -- the swept-on-move buffer vs recompute-and-scan ---------------------------------

_receive_op = st.tuples(
    st.just("receive"),
    st.sampled_from(PIDS[1:]),                # sender
    st.integers(min_value=1, max_value=6),    # seq: gaps, duplicates, out of order
    st.one_of(st.none(), _counts),            # piggybacked ack vector
)
_send_op = st.tuples(st.just("send"), st.integers(min_value=0, max_value=40))
_gossip_op = st.tuples(st.just("gossip"), st.sampled_from(PIDS[1:]), _counts)


class ReferenceStability:
    """What ``StabilityLayer`` used to do: recompute the frontier over every
    row, then scan the whole buffer, on every check."""

    def __init__(self, own, members):
        self.own = own
        self.rows = {pid: {} for pid in members}
        self.buffer = {}     # msg id -> bytes, in buffer order
        self.released = []
        self.peak_buffered = self.peak_buffered_bytes = 0

    def learn(self, observer, counts):
        row = self.rows.get(observer)
        if row is not None:
            for subject, count in counts.items():
                row[subject] = max(row.get(subject, 0), count)

    def hold(self, msg):
        self.buffer[msg.msg_id] = msg.size_bytes()
        self.peak_buffered = max(self.peak_buffered, len(self.buffer))
        self.peak_buffered_bytes = max(self.peak_buffered_bytes, sum(self.buffer.values()))

    def rebuild(self, members, contiguous):
        self.rows = {pid: {} for pid in members}
        self.learn(self.own, contiguous)
        self.check()

    def check(self):
        frontier = {
            s: min(row.get(s, 0) for row in self.rows.values()) for s in self.rows
        }
        for mid in [m for m in self.buffer if m[1] <= frontier.get(m[0], 0)]:
            del self.buffer[mid]
            self.released.append(mid)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(_buffer_op, _ack_op, _view_op, _receive_op, _send_op, _gossip_op),
    min_size=1, max_size=40,
))
def test_stability_layer_matches_recompute_and_scan(ops):
    layer, dedup = _stability_layer()
    reference = ReferenceStability("p0", PIDS)
    hooked = []
    layer.stable_hooks.append(hooked.append)
    for op in ops:
        if op[0] == "buffer":
            _, sender, seq, length, with_acks = op
            msg = DataMessage(
                group="group", sender=sender, seq=seq, payload="x" * length, sent_at=0.0,
                ack_vector=dict.fromkeys(PIDS, 0) if with_acks else None,
            )
            layer.buffer_message(msg)
            reference.hold(msg)
        elif op[0] == "ack":
            _, observers, counts = op
            for observer in sorted(observers):
                layer.absorb_ack_vector(observer, counts)
                reference.learn(observer, counts)
            layer.check_stability()
            reference.check()
        elif op[0] == "view":
            _, others, counts = op
            members = ["p0", *sorted(others)]
            dedup.contiguous.update(counts)
            layer.on_membership_changed(members)
            reference.rebuild(members, dedup.contiguous)
        elif op[0] == "receive":
            _, sender, seq, acks = op
            msg = DataMessage(group="group", sender=sender, seq=seq, payload=seq,
                              sent_at=0.0, ack_vector=acks)
            fresh = dedup.receive_up(sender, msg) is not None
            reference.learn(sender, acks or {})
            reference.learn(sender, {sender: seq})
            if fresh:
                reference.hold(msg)
            reference.learn("p0", dedup.contiguous)
            reference.check()
        elif op[0] == "send":
            msg = DataMessage(group="group", sender="p0", seq=dedup.contiguous["p0"] + 1,
                              payload="x" * op[1], sent_at=0.0)
            layer.send_down(msg)   # the stack pushes top to bottom
            dedup.send_down(msg)
            reference.hold(msg)    # sized with the ack vector send_down attached
            reference.learn("p0", dedup.contiguous)
        else:
            _, sender, counts = op
            layer.on_control(sender, AckGossip(group="group", sender=sender, ack_vector=counts))
            reference.learn(sender, counts)
            reference.check()
        assert list(layer.buffer) == list(reference.buffer), op
        assert hooked == reference.released, op
        assert layer.peak_buffered == reference.peak_buffered, op
        assert layer.peak_buffered_bytes == reference.peak_buffered_bytes, op


def test_view_change_sweeps_even_when_the_move_counts_coincide():
    # The rebuilt matrix counts its frontier moves from zero again; landing
    # on the count the layer last swept at must not read as "nothing moved".
    layer, dedup = _stability_layer()
    for observer in PIDS:
        layer.absorb_ack_vector(observer, {"p1": 1})
    layer.check_stability()
    assert layer.matrix.moves == 1
    layer.buffer_message(DataMessage(group="group", sender="p0", seq=1, payload="x", sent_at=0.0))
    dedup.contiguous["p0"] = 1
    layer.on_membership_changed(["p0"])  # alone: own counts are the frontier
    assert layer.matrix.moves == 1
    assert not layer.buffer


def _seeded_group_run(seed, ordering, leave=None, drop_prob=0.05):
    """Sixty multicasts through a 5-member group, optionally with a member
    leaving mid-stream; the network and the members after the run."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=drop_prob))
    pids = ["p0", "p1", "p2", "p3", "p4"]
    group = build_group(sim, net, pids, ordering=ordering,
                        with_membership=leave is not None)
    for k in range(60):
        sim.call_at(1.0 + k, group[pids[k % 4]].multicast, k)
    if leave is not None:
        sim.call_at(30.0, group[leave].membership.leave)
    sim.run(until=900.0)
    return net, group


def _stability_counters(seed, ordering, leave=None):
    """:func:`_seeded_group_run` at 5% loss; what each member's transport counted."""
    _, group = _seeded_group_run(seed, ordering, leave)
    layers = [m.stack.layer("stability") for m in group.values()]
    return {
        "peak_buffered": [layer.peak_buffered for layer in layers],
        "peak_buffered_bytes": [layer.peak_buffered_bytes for layer in layers],
        "gossip_sent": [layer.gossip_sent for layer in layers],
        "retransmissions": [m.stack.layer("dedup").retransmissions for m in group.values()],
        "left_buffered": [len(layer.buffer) for layer in layers],
    }


def test_maintained_frontier_keeps_the_counters_the_recomputed_one_kept():
    """Values recorded from the min-over-every-row, scan-the-whole-buffer
    ``check_stability`` this one replaced, same seeds.  The gossip counts
    were re-pinned when settled members' gossip began to back off (45 per
    member before, 13 for the member that left); every buffer count is as
    recorded.  The total-agreed run was re-pinned when commit requests
    became blocking-and-overdue only: 165 fewer requests shift the drop
    draws, and p4 -- which sends no data, so its counts travel only in
    gossip -- now loses p1's seventh message, which holds nine of p1's
    messages unstable at every other member until p4's repaired count is
    gossiped (peak 27).  Pooled over perfbench's 24 pinned seeds the peak
    falls, 27.4 -> 26.5.  The gossip counts were re-pinned again when a
    settled member fell silent instead of backing off (about half as many
    broadcast ticks); that re-rolls seed 31's drops, so p0 and p2 serve a
    different number of retransmissions.  No buffer count moved.  The
    total-agreed run was re-pinned when senders began to commit in seq
    order and receivers to ask for a commit on the sender's next one: the
    drop draws re-roll again, and the peak falls to 26."""
    assert _stability_counters(31, "causal", leave="p4") == {
        "peak_buffered": [38, 23, 25, 25, 20],
        "peak_buffered_bytes": [4966, 3036, 3300, 3250, 2640],
        "gossip_sent": [6, 6, 6, 6, 5],
        "retransmissions": [2, 5, 5, 0, 0],
        "left_buffered": [0, 0, 0, 0, 0],
    }
    assert _stability_counters(33, "total-agreed") == {
        "peak_buffered": [26, 25, 26, 26, 20],
        "peak_buffered_bytes": [2132, 2050, 2132, 2132, 1640],
        "gossip_sent": [5, 5, 6, 5, 5],
        "retransmissions": [6, 5, 4, 4, 0],
        "left_buffered": [0, 0, 0, 0, 0],
    }
    # E16 samples every member's buffer every five time units
    assert e16_run(0, 60.0, 6, 15) == {
        "gossip_messages": 66, "buffer_time_integral": 10165.0,
        "drained_at": 70.0, "residual": 0,
    }
    assert e16_run(5, 240.0, 4, 10) == {
        "gossip_messages": 28, "buffer_time_integral": 16990.0,
        "drained_at": 250.0, "residual": 0,
    }


def test_lean_envelope_path_keeps_the_wire_counters():
    """``net.stats`` recorded at 23bd898 — the walked ``estimate_size`` and the
    ``sample_drop``/``sample_latency`` envelope path — same seeds: the same
    packets, sized the same, meet the same fate.  Re-pinned when settled
    members' gossip began to back off: fewer gossip sends, and so different
    drop draws for the packets after them.  The total-agreed run was
    re-pinned again, the same way, when commit requests became
    blocking-and-overdue only (181 requests -> 16), and all three when a
    settled member fell silent and answered queries instead.  The
    total-agreed run was re-pinned once more, the same way, when senders
    began to commit in seq order (16 more packets: 6 more data repairs and
    5 more commits, re-rolled losses)."""
    def wire(*args, **kwargs):
        net, _ = _seeded_group_run(*args, **kwargs)
        return net.stats.snapshot()

    assert wire(41, "causal", drop_prob=0.0) == {
        "sent": 345, "delivered": 345, "dropped": 0, "partitioned": 0,
        "to_crashed": 0, "reset": 0, "bytes_sent": 42390, "bytes_delivered": 42390,
    }
    assert wire(33, "total-agreed") == {
        "sent": 951, "delivered": 903, "dropped": 48, "partitioned": 0,
        "to_crashed": 0, "reset": 0, "bytes_sent": 78744, "bytes_delivered": 74793,
    }
    assert wire(31, "causal", leave="p4") == {
        "sent": 1517, "delivered": 1437, "dropped": 70, "partitioned": 0,
        "to_crashed": 0, "reset": 0, "bytes_sent": 99711, "bytes_delivered": 94522,
    }


def test_transport_metrics_buffered_bytes_with_and_without_stability_layer():
    def run(ordering):
        sim = Simulator(seed=0)
        net = Network(sim, LinkModel(latency=5.0))
        members = build_group(sim, net, PIDS, ordering=ordering, ack_period=0.0)
        for i in range(4):
            sim.call_at(float(i), members["p1"].multicast, "x" * (i + 1))
        sim.run(until=200)
        return members["p0"]

    bare = run("hybrid-causal")
    assert bare.stack.layer("stability") is None
    assert "buffered_bytes" not in bare.metrics()  # no layer, no key

    member = run("causal")
    layer = member.stack.layer("stability")
    brute = sum(m.size_bytes() for m in layer.buffer.values())
    assert brute > 0  # no gossip, one sender: nothing became stable
    assert layer.layer_metrics()["buffered_bytes"] == layer.buffered_bytes() == brute
    assert member.metrics()["buffered_bytes"] == brute


def test_message_grows_by_exactly_the_ack_vector_when_sent_down():
    # instrumentation.on_send and the piggyback accounting size a message
    # *before* send_down attaches its ack vector, so a size memoised on first
    # call would freeze 8+len(pid) bytes per member short of the wire size.
    layer, _ = _stability_layer()
    msg = DataMessage(group="group", sender="p0", seq=1, payload="hello", sent_at=0.0)
    before = msg.size_bytes()
    layer.send_down(msg)
    assert set(msg.ack_vector) == set(PIDS)
    assert msg.size_bytes() - before == sum(8 + len(pid.encode()) for pid in PIDS)
    assert layer.buffered_bytes() == msg.size_bytes()  # buffered at its wire size


# -- pay per news: the absorbed-vector memo vs a layer that always merges -----------

SENDERS = ["p1", "p2", "p3", "ghost"]  # p3 joins and leaves; ghost is never a member

_vector = st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4).map(
    lambda values: dict(zip(["p0", "p1", "p2", "p3"], values))
)


class AlwaysMergeStability(StabilityLayer):
    """The layer as it was before it paid per news: every gossip merged,
    every sending tick a fresh snapshot, every publish the whole own row.
    Which ticks send and which queries are answered is the real layer's
    rule, so the two differ only in merge work."""

    def on_control(self, src, payload):
        if isinstance(payload, AckGossip):
            self.absorb_ack_vector(payload.sender, payload.ack_vector)
            self._dedup.learn_existence(payload.ack_vector)
            self.check_stability()
            if isinstance(payload, AckQuery):
                self._answer(payload.sender)
            return []
        return None

    def _gossip_tick(self):
        self._last_gossip = None  # nothing to re-send: snapshot afresh
        super()._gossip_tick()

    def publish_own_counts(self, sender, count):
        self.matrix.update_row(self.member.pid, self._counts())


class _Driven:
    """p0's stability and dedup layers on a private simulator: what p0 sends
    is recorded, not transmitted, and the test plays every other member."""

    def __init__(self, always_merge):
        self.sim = Simulator(seed=0)
        net = Network(self.sim, LinkModel(latency=5.0))
        # ack_period=0: no tick is armed until the class is settled; the
        # manual first tick at the end of __init__ starts the period
        self.member = build_member(self.sim, net, "p0", group="group", members=PIDS,
                                   ordering="raw", ack_period=0.0)
        self.layer = self.member.stack.layer("stability")
        self.dedup = self.member.stack.layer("dedup")
        if always_merge:
            self.layer.__class__ = AlwaysMergeStability
        self.sent = []
        self.member.send = lambda dst, payload: self.sent.append(((dst,), payload))
        self.member.send_many = lambda dsts, payload: self.sent.append((tuple(dsts), payload))
        self.released = []
        self.layer.stable_hooks.append(self.released.append)
        self.merges = 0
        absorb = self.layer.absorb_ack_vector

        def counted(sender, vector):
            self.merges += 1
            absorb(sender, vector)

        self.layer.absorb_ack_vector = counted
        self.layer.ack_period = 50.0
        self.layer._gossip_tick()

    def state(self):
        matrix = self.layer.matrix
        return {
            "rows": {pid: matrix.row(pid) for pid in matrix.pids},
            "frontier": matrix.min_vector(),
            "moves": matrix.moves,
            "contiguous": dict(self.dedup.contiguous),
            "max_seen": dict(self.dedup._max_seen),
            "nak_pending": dict(self.dedup._nak_pending),
            "timers": self.sim.pending,
            "naks_sent": self.dedup.naks_sent,
            "sent": self.sent,
            "buffer": list(self.layer.buffer),
            "released": self.released,
            "gossip_sent": self.layer.gossip_sent,
            "gossip_quiet": self.layer.gossip_quiet,
            "gossip_answers": self.layer.gossip_answers,
        }


class PayPerNewsMachine(RuleBasedStateMachine):
    """Every step goes to the real layer and to :class:`AlwaysMergeStability`;
    nothing either of them exposes may differ afterwards."""

    def __init__(self):
        super().__init__()
        self.real = _Driven(always_merge=False)
        self.model = _Driven(always_merge=True)
        self.last = {}  # sender -> the vector it last gossiped

    def both(self, act):
        act(self.real)
        act(self.model)

    def deliver(self, sender, vector, kind=AckGossip):
        self.both(lambda d: d.layer.on_control(
            sender, kind(group="group", sender=sender, ack_vector=vector)))

    @rule(sender=st.sampled_from(SENDERS), vector=_vector, query=st.booleans())
    def gossip(self, sender, vector, query):
        """Fresh or stale news, from members, ex-members and strangers; a
        query is answered only by a settled member, and only to a member."""
        self.last[sender] = vector
        self.deliver(sender, vector, AckQuery if query else AckGossip)

    @precondition(lambda self: self.last)
    @rule(data=st.data(), distinct=st.booleans())
    def gossip_again(self, data, distinct):
        """The sender's counts did not move: the same dict object (what the
        simulated network hands over) or an equal copy (what a socket does)."""
        sender = data.draw(st.sampled_from(sorted(self.last)))
        self.deliver(sender, dict(self.last[sender]) if distinct else self.last[sender])

    @rule(sender=st.sampled_from(SENDERS[:3]), seq=st.integers(min_value=1, max_value=6),
          acks=st.one_of(st.none(), _vector), retransmit=st.booleans())
    def receive(self, sender, seq, acks, retransmit):
        """Data in any order, with gaps and duplicates; a retransmitted copy
        carries no ack vector."""
        self.both(lambda d: d.dedup.receive_up(sender, DataMessage(
            group="group", sender=sender, seq=seq, payload=seq, sent_at=0.0,
            ack_vector=None if retransmit else acks, retransmit=retransmit)))

    @rule()
    def send(self):
        def multicast(d):
            msg = DataMessage(group="group", sender="p0",
                              seq=d.dedup.contiguous["p0"] + 1, payload="x", sent_at=0.0)
            d.layer.send_down(msg)  # the stack pushes top to bottom
            d.dedup.send_down(msg)
        self.both(multicast)

    @rule(requester=st.sampled_from(SENDERS[:3]), sender=st.sampled_from(PIDS),
          seq=st.integers(min_value=1, max_value=6))
    def serve_nak(self, requester, sender, seq):
        self.both(lambda d: d.dedup.on_control(
            requester, Nak(group="group", requester=requester, wanted=[(sender, seq)])))

    @rule(others=st.sets(st.sampled_from(SENDERS[:3])),
          forward=st.one_of(st.none(), _vector))
    def install_view(self, others, forward):
        """Join, leave, or the same members again: the matrix is rebuilt each
        time.  ``forward`` is a joiner's fast-forward, applied before the
        rebuild as ``Membership._complete_join`` does."""
        def install(d):
            d.dedup.fast_forward(forward or {})
            d.member.view_members = ("p0", *sorted(others))
            d.member.stack.membership_changed(d.member.view_members)
        self.both(install)

    @rule(elapsed=st.sampled_from([3.0, 10.0, 60.0]))
    def advance(self, elapsed):
        """NAK timers and gossip ticks fall due."""
        self.both(lambda d: d.sim.run(until=d.sim.now + elapsed))

    @invariant()
    def indistinguishable(self):
        assert self.real.state() == self.model.state()


TestPayPerNews = PayPerNewsMachine.TestCase
TestPayPerNews.settings = settings(max_examples=120, stateful_step_count=30, deadline=None)


def test_equal_but_distinct_vectors_are_recognised_as_no_news():
    # UdpNetwork decodes a new dict per datagram: the memo must hit on
    # equality, not identity alone, and must miss as soon as a count differs.
    machine = PayPerNewsMachine()
    vector = {"p0": 0, "p1": 2, "p2": 1, "p3": 0}
    for _ in range(4):
        machine.deliver("p1", dict(vector))
        machine.indistinguishable()
    assert (machine.real.merges, machine.model.merges) == (1, 4)
    machine.deliver("p1", {**vector, "p2": 2})
    machine.indistinguishable()
    assert machine.real.merges == 2
    assert machine.real.layer.matrix.row("p1")["p2"] == 2
    assert machine.real.dedup._max_seen["p2"] == 2


def test_the_memo_does_not_survive_a_rebuilt_matrix():
    # Between two identical gossips a view is installed: the new matrix has
    # never seen the vector, so "same as last time" must not skip the merge.
    machine = PayPerNewsMachine()
    vector = {"p0": 0, "p1": 3, "p2": 3, "p3": 0}
    machine.deliver("p1", vector)
    machine.deliver("p1", vector)
    assert machine.real.merges == 1
    machine.install_view({"p1", "p2"}, None)  # same members, rebuilt matrix
    assert machine.real.layer.matrix.row("p1") == {"p0": 0, "p1": 0, "p2": 0}
    machine.deliver("p1", vector)
    machine.indistinguishable()
    assert machine.real.merges == 2
    assert machine.real.layer.matrix.row("p1")["p2"] == 3
