"""The piggyback/batching layer: coalescing, transparency, savings."""

from repro.catocs import build_group
from repro.catocs.messages import BatchEnvelope
from repro.catocs.stack import BatchLayer
from repro.sim import LinkModel, Network, Simulator


def _run(ordering, seed=5, until=600):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    members = build_group(sim, net, ["a", "b", "c", "d"], ordering=ordering,
                          ack_period=20.0)
    # A bursty tick: several members multicast at the same instant, so acks,
    # data, and gossip for one destination coincide within a tick.
    for round_start in range(0, 10):
        at = 10.0 + 30.0 * round_start
        for pid in ("a", "b", "c"):
            sim.call_at(at, members[pid].multicast, {"round": round_start, "from": pid})
    sim.run(until=until)
    return sim, net, members


def test_batching_reduces_network_messages(monkeypatch):
    """Batching shifts arrival times, and a settled member's answers to
    stability queries depend on them, so the two runs need not emit the
    same payloads: the savings are checked within the batched run, against
    every payload the members handed the batch layer."""
    _, net_plain, plain = _run("dedup|stability|causal")
    enqueued = []
    enqueue = BatchLayer.enqueue
    monkeypatch.setattr(BatchLayer, "enqueue", lambda layer, dst, payload: (
        enqueued.append(payload), enqueue(layer, dst, payload)))
    _, net_batched, batched = _run("dedup|batch|stability|causal")

    # Identical delivery outcome...
    plain_sets = {pid: frozenset(r.msg_id for r in m.delivered)
                  for pid, m in plain.items()}
    batched_sets = {pid: frozenset(r.msg_id for r in m.delivered)
                    for pid, m in batched.items()}
    assert plain_sets == batched_sets
    # ...with measurably fewer packets on the wire.
    assert net_batched.stats.sent < net_plain.stats.sent
    saved = sum(m.stack.layer("batch").messages_saved() for m in batched.values())
    assert saved > 0
    assert len(enqueued) == net_batched.stats.sent + saved


def test_batch_accounting_consistent():
    _, _, members = _run("dedup|batch|stability|causal")
    for member in members.values():
        layer = member.stack.layer("batch")
        assert layer.payloads_coalesced >= 2 * layer.batches_sent or layer.batches_sent == 0
        assert layer.peak_batch >= 2 or layer.batches_sent == 0
        metrics = layer.layer_metrics()
        assert metrics["messages_saved"] == layer.payloads_coalesced - layer.batches_sent


def test_single_payload_ticks_stay_unwrapped():
    """A quiet member's lone payload is sent raw, not enveloped."""
    sim = Simulator(seed=9)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    seen = []
    original = net.send

    def sniff(src, dst, payload, *sized):
        seen.append(type(payload).__name__)
        return original(src, dst, payload, *sized)

    net.send = sniff
    members = build_group(sim, net, ["a", "b"], ordering="dedup|batch|stability|causal",
                          ack_period=0.0)
    sim.call_at(10.0, members["a"].multicast, "solo")
    sim.run(until=100)
    assert [r.payload for r in members["b"].delivered] == ["solo"]
    assert "DataMessage" in seen
    assert "BatchEnvelope" not in seen


def test_envelope_amortises_wire_bytes():
    inner = [object(), object()]
    env = BatchEnvelope(sender="a", payloads=["xy", "zw"])
    # One 16-byte frame instead of one header per payload.
    assert env.size_bytes() == 16 + sum(
        BatchEnvelope(sender="a", payloads=[p]).size_bytes() - 16
        for p in env.payloads
    )


def test_batcher_quiesces_with_member_crash():
    """Payloads queued in a crashed member's batcher never hit the wire."""
    sim = Simulator(seed=2)
    net = Network(sim, LinkModel(latency=5.0, jitter=0.0))
    members = build_group(sim, net, ["a", "b"], ordering="dedup|batch|stability|causal")

    def send_then_crash():
        members["a"].multicast("doomed")
        members["a"].crash()

    sim.call_at(10.0, send_then_crash)
    sim.run(until=200)
    assert [r.payload for r in members["b"].delivered] == []
