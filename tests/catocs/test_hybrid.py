"""Hybrid-buffering causal layer: bounded receiver, sender retention."""

from repro.catocs import build_group
from repro.catocs.messages import DataMessage
from repro.sim import LinkModel, Network, Simulator


def _lossy_first_to(net, src, dst, seq):
    """Drop the first non-retransmit copy of (src, seq) on the src->dst link."""
    state = {"dropped": False}
    original = net.send

    def wrapper(s, d, payload, *sized):
        if (s, d) == (src, dst) and isinstance(payload, DataMessage) \
                and payload.seq == seq and not payload.retransmit \
                and not state["dropped"]:
            state["dropped"] = True
            return None
        return original(s, d, payload, *sized)

    net.send = wrapper


def test_bounded_buffer_overflows_to_stub_and_refetches():
    """With the delay queue capped, blocked messages drop to stubs and the
    bodies come back from sender retention once dependencies clear."""
    sim = Simulator(seed=13)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    members = build_group(sim, net, ["p", "q", "r"], ordering="hybrid-causal",
                          nak_delay=6.0)
    q_layer = members["q"].ordering
    q_layer.buffer_bound = 2  # force overflow with a short dependency stall

    _lossy_first_to(net, "p", "q", seq=1)
    for seq, at in enumerate([10.0, 20.0, 24.0, 28.0, 32.0, 36.0], start=1):
        sim.call_at(at, members["p"].multicast, {"n": seq})
    sim.run(until=600)

    assert [r.payload["n"] for r in members["q"].delivered] == [1, 2, 3, 4, 5, 6]
    assert q_layer.overflow_drops > 0
    assert q_layer.refetches_sent > 0
    assert members["p"].ordering.refills_served > 0
    assert q_layer.pending() == 0 and not q_layer._stubs


def test_retention_trims_after_group_acks():
    sim = Simulator(seed=4)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    members = build_group(sim, net, ["p", "q", "r"], ordering="hybrid-causal")
    for i in range(5):
        sim.call_at(10.0 + 5.0 * i, members["p"].multicast, {"n": i})
    sim.run(until=600)

    p_layer = members["p"].ordering
    assert p_layer.peak_retained >= 1
    # Every member acked all five deliveries, so retention is empty again.
    assert p_layer._retained == {}
    assert all(m.ordering.acks_sent >= 1 for m in members.values())


def test_retention_resend_recovers_lost_final_message():
    """No ack vectors or gossip in the hybrid stack: a dropped *final*
    message leaves no seq gap anywhere, and only the sender's retention
    resend can recover it."""
    sim = Simulator(seed=8)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    members = build_group(sim, net, ["p", "q", "r"], ordering="hybrid-causal")
    _lossy_first_to(net, "p", "q", seq=2)
    sim.call_at(10.0, members["p"].multicast, {"n": 1})
    sim.call_at(20.0, members["p"].multicast, {"n": 2})
    sim.run(until=600)

    assert [r.payload["n"] for r in members["q"].delivered] == [1, 2]
    assert members["p"].ordering.retention_resends >= 1
    # The hybrid stack really has no stability machinery.
    assert members["q"].stack.layer("stability") is None


def test_hybrid_layer_metrics_shape():
    sim = Simulator(seed=1)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    members = build_group(sim, net, ["p", "q"], ordering="hybrid-causal")
    sim.call_at(10.0, members["p"].multicast, "x")
    sim.run(until=100)
    metrics = members["p"].ordering.layer_metrics()
    for key in ("pending", "peak_pending", "total_hold_time", "retained",
                "peak_retained", "stubs", "overflow_drops", "refetches_sent",
                "refills_served", "retention_resends", "acks_sent"):
        assert key in metrics, key
