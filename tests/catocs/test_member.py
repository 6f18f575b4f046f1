"""Tests for the GroupMember endpoint itself."""

import pytest

from perfbench.simload import stack_counts
from repro.catocs import DISCIPLINES, GroupInstrumentation, GroupMember, build_group
from repro.sim import EventTrace, LinkModel, Network, Simulator


def test_member_must_be_in_its_own_group():
    sim = Simulator()
    net = Network(sim, LinkModel())
    with pytest.raises(ValueError):
        GroupMember(sim, net, "outsider", group="g", members=["a", "b"])


def test_delivery_records_carry_latency():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=7.0))
    members = build_group(sim, net, ["a", "b"], ordering="raw")
    sim.call_at(10.0, members["a"].multicast, "x")
    sim.run(until=100)
    remote = [r for r in members["b"].delivered]
    assert remote[0].latency == 7.0
    local = [r for r in members["a"].delivered]
    assert local[0].latency == 0.0


def test_multicast_while_crashed_returns_none():
    sim = Simulator()
    net = Network(sim, LinkModel())
    members = build_group(sim, net, ["a", "b"], ordering="raw")
    members["a"].crash()
    assert members["a"].multicast("x") is None


def test_suppression_queues_and_resumes_in_order():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=2.0))
    members = build_group(sim, net, ["a", "b"], ordering="raw")
    a = members["a"]
    sim.call_at(5.0, a.suppress_sends)
    for k in range(3):
        sim.call_at(10.0 + k, a.multicast, f"q{k}")
    sim.call_at(20.0, a.resume_sends)
    sim.run(until=200)
    assert members["b"].delivered_payloads() == ["q0", "q1", "q2"]
    assert a.total_suppressed_time == 15.0


def test_trace_records_send_and_deliver():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=3.0))
    trace = EventTrace()
    members = build_group(sim, net, ["a", "b"], ordering="raw", trace=trace)
    sim.call_at(0.0, members["a"].multicast, {"kind": "hello"})
    sim.run(until=50)
    kinds = {(e.pid, e.kind) for e in trace.entries}
    assert ("a", "send") in kinds
    assert ("b", "recv") in kinds and ("b", "deliver") in kinds


def test_instrumentation_sees_sends_and_stability():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=3.0))
    instr = GroupInstrumentation()
    members = build_group(sim, net, ["a", "b", "c"], ordering="causal",
                          instrumentation=instr, ack_period=10.0)
    for i in range(4):
        sim.call_at(float(i * 5), members["a"].multicast, i)
    sim.run(until=2000)
    metrics = instr.metrics()
    assert metrics["peak_nodes"] >= 1
    assert metrics["nodes"] == 0  # everything stabilised by the end


def test_instrumentation_holds_no_per_message_state_once_all_is_stable():
    sim = Simulator(seed=9)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=0.05))
    instr = GroupInstrumentation()
    pids = ["a", "b", "c", "d"]
    members = build_group(sim, net, pids, ordering="causal", instrumentation=instr)
    for k in range(40):
        sim.call_at(1.0 + k, members[pids[k % 4]].multicast, k)
    sim.run(until=2000)
    assert all(len(m.delivered) == 40 and not m.stack.layer("stability").buffer
               for m in members.values())
    assert instr.graph.peak_nodes > 1
    for holder in (instr, instr.graph):
        grown = {name: value for name, value in vars(holder).items()
                 if isinstance(value, (set, dict, list)) and value}
        assert not grown, grown


def test_sequencer_is_lowest_unsuspected_pid():
    sim = Simulator()
    net = Network(sim, LinkModel())
    members = build_group(sim, net, ["a", "b", "c"], ordering="raw")
    m = members["c"]
    assert m.sequencer_pid() == "a"
    m.suspect("a")
    assert m.sequencer_pid() == "b"
    m.unsuspect("a")
    assert m.sequencer_pid() == "a"


def test_delivered_payloads_in_order():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=1.0))
    members = build_group(sim, net, ["a", "b"], ordering="fifo")
    for i in range(5):
        sim.call_at(float(i), members["a"].multicast, i)
    sim.run(until=100)
    assert members["b"].delivered_payloads() == [0, 1, 2, 3, 4]


def _fan_out_counters(seed, ordering, with_membership=False, leave=None):
    """Forty round-robin multicasts through a 4-member group at 5% loss;
    the counters every peer fan-out (data, gossip, control, heartbeat,
    leave announce) keeps or feeds."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=0.05))
    pids = ["p0", "p1", "p2", "p3"]
    group = build_group(sim, net, pids, ordering=ordering,
                        with_membership=with_membership)
    for k in range(40):
        sim.call_at(1.0 + k, group[pids[k % 4]].multicast, k)
    if leave is not None:
        sim.call_at(60.0, group[leave].membership.leave)
    sim.run(until=600.0)
    members = list(group.values())
    counters = {
        "control_sent": [m.control_sent for m in members],
        "wire": (net.stats.sent, net.stats.bytes_sent, net.stats.dropped),
    }
    if with_membership:
        counters["heartbeats_sent"] = [
            m.failure_detector.heartbeats_sent for m in members]
    batchers = [m.stack.layer("batch") for m in members]
    if None not in batchers:
        counters["singles_sent"] = [b.singles_sent for b in batchers]
        counters["batches_sent"] = [b.batches_sent for b in batchers]
    return counters


def test_peer_fan_out_keeps_the_counters_the_per_peer_loops_kept():
    """Values recorded from the hand-rolled ``for pid in view_members``
    loops that ``send_peers`` replaced, same seeds.  The stability stacks'
    wire counts were re-pinned when settled members' gossip began to back
    off: gossip sends only, every other counter is as recorded.  The
    total-agreed runs were re-pinned again when a member began to ask for a
    commit only when it blocks delivery and is overdue: fewer commit
    requests, and so different drop draws for the packets after them.  The
    stability stacks were re-pinned once more when a settled member fell
    silent and answered queries instead; in the batched run that also
    shifts which payloads share a tick, hence the batch counts.  The
    total-agreed runs were re-pinned once more when a sender began to
    commit its own messages in seq order and receivers to ask for a commit
    on the sender's next one: commits wait and go out together, so the
    drop draws differ, and in the batched run a sender's commits released
    in one tick now share an envelope (112 lone commits -> 52)."""
    assert _fan_out_counters(22, "total-agreed", with_membership=True,
                             leave="p3") == {
        "control_sent": [71, 68, 71, 65],
        "wire": (887, 59360, 47),
        "heartbeats_sent": [127, 127, 127, 33],
    }
    assert _fan_out_counters(24, "hybrid-causal") == {
        "control_sent": [9, 6, 6, 6],
        "wire": (155, 11661, 4),
    }
    assert _fan_out_counters(
        26, "dedup|batch|stability|total-agreed", with_membership=True) == {
        "control_sent": [70, 74, 66, 76],
        "wire": (1058, 74646, 57),
        "heartbeats_sent": [180, 180, 180, 180],
        "singles_sent": [241, 236, 239, 245],
        "batches_sent": [23, 27, 24, 23],
    }


def _lossy_group(ordering, seed=3):
    """Twenty-four round-robin multicasts through a 4-member group at 10%
    loss, 600 units later."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=0.1))
    pids = ["p0", "p1", "p2", "p3"]
    group = build_group(sim, net, pids, ordering=ordering)
    for k in range(24):
        sim.call_at(1.0 + k, group[pids[k % 4]].multicast, k)
    sim.run(until=600.0)
    return group


MEMBER_KEYS = ("pid", "ordering", "multicasts_sent", "control_sent", "delivered",
               "pending", "peak_pending", "total_hold_time", "suppressed_time")
#: The transport keys ``metrics()`` has always reported.
TRANSPORT_KEYS = ("buffered", "buffered_bytes", "peak_buffered", "peak_buffered_bytes",
                  "retransmissions", "naks_sent", "gossip_sent", "duplicates")
#: p1's values for them on each alias, recorded when ``metrics()`` read them
#: through a facade that reported 0 for a layer the stack lacks; ``None``
#: marks those keys, which are now absent.
RECORDED_TRANSPORT = {
    "batched-causal": (0, 0, 16, 1792, 3, 0, 3, 0),
    "causal": (0, 0, 16, 1792, 3, 0, 5, 0),
    "fifo": (0, 0, 16, 1152, 3, 0, 5, 0),
    "hybrid-causal": (None, None, None, None, 3, 1, None, 0),
    "raw": (0, 0, 16, 1152, 3, 0, 5, 0),
    "total-agreed": (0, 0, 16, 1152, 2, 0, 3, 2),
    "total-seq": (0, 0, 16, 1752, 2, 4, 4, 2),
}


@pytest.mark.parametrize("alias", sorted(DISCIPLINES))
def test_metrics_are_the_member_counters_then_each_transport_layers(alias):
    member = _lossy_group(alias)["p1"]
    metrics = member.metrics()
    transport = [key for layer in member.stack.layers[:-1] for key in layer.layer_metrics()]
    assert list(metrics) == [*MEMBER_KEYS, *transport]
    assert metrics["ordering"] == member.stack.ordering.name
    assert tuple(metrics.get(key) for key in TRANSPORT_KEYS) == RECORDED_TRANSPORT[alias]


@pytest.mark.parametrize("alias", sorted(DISCIPLINES))
def test_the_counters_perfbench_reads_are_the_layers_counters(alias):
    """``stack_counts`` is the one remaining reader of ``member.transport``:
    each counter it sums or maxes is its layer's, or 0 where the stack has
    no such layer."""
    group = _lossy_group(alias)
    dedup = [m.stack.layer("dedup") for m in group.values()]
    stability = [m.stack.layer("stability") for m in group.values()]

    def total(layers, counter):
        return sum(getattr(layer, counter) for layer in layers if layer is not None)

    def peak(layers, counter):
        return max(getattr(layer, counter) if layer is not None else 0 for layer in layers)

    counts = stack_counts(group)
    assert {key: counts[key] for key in ("naks", "retransmissions", "duplicates",
                                         "gossip_msgs", "peak_buffered",
                                         "peak_buffered_bytes")} == {
        "naks": total(dedup, "naks_sent"),
        "retransmissions": total(dedup, "retransmissions"),
        "duplicates": total(dedup, "duplicates"),
        "gossip_msgs": total(stability, "gossip_sent") * (len(group) - 1),
        "peak_buffered": peak(stability, "peak_buffered"),
        "peak_buffered_bytes": peak(stability, "peak_buffered_bytes"),
    }
    assert counts["retransmissions"] > 0
    assert (counts["peak_buffered"] > 0) == (None not in stability)
