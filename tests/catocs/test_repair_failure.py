"""Transport repair under failure: crashed senders and partition resets.

Exercises the dedup/NAK layer's failure paths end to end:

- NAK retransmission must rotate to a covering peer (via the stability
  matrix) when the original sender crashed before the repair;
- the per-link FIFO connection reset on partition must compose with the
  dedup layer: after a partition heals, the missed middle of a sender's
  sequence is repaired by NAK and delivered exactly once, in order.
"""

from repro.catocs import build_group
from repro.sim import EventTrace, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


def test_nak_repair_rotates_to_peer_after_sender_crash():
    """A message that reached one peer survives its sender's crash.

    q receives (p,1); r misses it.  p crashes before r's NAK can be served
    by it, and r's failure detector-free member still believes p alive — so
    the first NAK goes to p and dies.  Retries must rotate to q, whose
    stability-matrix row shows it holds (p,1).
    """
    sim = Simulator(seed=7)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    pids = ["p", "q", "r"]
    members = build_group(sim, net, pids, ordering="causal",
                          nak_delay=6.0, ack_period=15.0)

    # r cannot hear p directly: the copy to r is always lost.
    net.set_link("p", "r", LinkModel(latency=5.0, jitter=0.0, drop_prob=1.0))

    sim.call_at(10.0, members["p"].multicast, {"uid": "only"})
    # Crash p right after the send leaves; it can never answer a NAK.
    sim.call_at(16.0, members["p"].crash)
    sim.run(until=600)

    assert [r.payload for r in members["q"].delivered] == [{"uid": "only"}]
    # r learned of (p,1) from q's gossip/ack vector and repaired it from q.
    assert [r.payload for r in members["r"].delivered] == [{"uid": "only"}]
    assert members["q"].stack.layer("dedup").retransmissions >= 1
    assert members["r"].stack.layer("dedup").naks_sent >= 1


def test_partition_heal_repairs_missed_middle_exactly_once():
    """Partition -> heal: the FIFO reset must not confuse dedup repair.

    p sends 1..2 before the partition, 3..4 while q is unreachable, 5..6
    after the heal.  The per-link FIFO reset drops the in-flight tail; q
    must NAK-repair the missing middle and deliver 1..6 exactly once, in
    order, with no duplicate deliveries from the retransmissions.
    """
    sim = Simulator(seed=11)
    net = Network(sim, LinkModel(latency=4.0, jitter=0.0))
    pids = ["p", "q", "r"]
    members = build_group(sim, net, pids, ordering="fifo",
                          nak_delay=5.0, ack_period=12.0, trace=EventTrace())

    for seq, at in enumerate([10.0, 20.0, 60.0, 70.0, 130.0, 140.0], start=1):
        sim.call_at(at, members["p"].multicast, {"n": seq})
    sim.call_at(40.0, net.partition, {"p", "r"}, {"q"})
    sim.call_at(110.0, net.heal)
    sim.run(until=800)

    assert_judged(members, "fifo", 6)  # 1..6 once each, in order, everywhere
    # The middle really was lost and repaired, not delivered in-flight.
    assert members["q"].stack.layer("dedup").naks_sent >= 1
    retransmissions = sum(m.stack.layer("dedup").retransmissions for m in members.values())
    assert retransmissions >= 1


def test_hybrid_stack_serves_nak_from_sender_retention():
    """Without a stability layer, NAK repair falls back to the hybrid
    layer's sender-side retention via the stack's repair_lookup chain."""
    sim = Simulator(seed=3)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    pids = ["p", "q", "r"]
    members = build_group(sim, net, pids, ordering="hybrid-causal",
                          nak_delay=6.0)

    # q misses p's first message; the follow-up reveals the gap.
    drop_first = {"count": 0}
    original_send = net.send

    def lossy_send(src, dst, payload, *sized):
        from repro.catocs.messages import DataMessage
        if (src, dst) == ("p", "q") and isinstance(payload, DataMessage) \
                and payload.seq == 1 and not payload.retransmit \
                and drop_first["count"] == 0:
            drop_first["count"] += 1
            return None
        return original_send(src, dst, payload, *sized)

    net.send = lossy_send
    sim.call_at(10.0, members["p"].multicast, {"n": 1})
    sim.call_at(30.0, members["p"].multicast, {"n": 2})
    sim.run(until=400)

    assert [r.payload["n"] for r in members["q"].delivered] == [1, 2]
    assert members["q"].stack.layer("dedup").naks_sent >= 1
    assert members["p"].stack.layer("dedup").retransmissions >= 1
    # No stability layer in this stack: the copy came from sender retention.
    assert members["p"].stack.layer("stability") is None
