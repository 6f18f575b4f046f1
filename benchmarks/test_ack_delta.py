"""The causal stamp is the ack: fewer bytes, and nothing else moves.

A stamped data message carries only the receive counts its vector clock
does not already carry (``StabilityLayer.send_down``); the receiver reads
the stamp for the rest.  The receiver's stability matrix and gap chase see
the values a full ack vector gave them, so the run is the same run, in
fewer bytes.  This sweep runs ``sim-causal-clean``'s group shape (eight
members, round-robin senders, one multicast per unit, latency 3 + jitter 2)
at 0, 5 and 15% loss on four pinned seeds, and compares each run with the
values the full-ack-vector transport recorded: wire messages, deliveries,
the p50/p99 delivery latency and the peak buffered messages must be equal,
and the bytes on the wire strictly lower.
"""

import pytest

from repro.catocs import build_group
from repro.sim import LinkModel, Network, Simulator

MEMBERS = 8
MULTICASTS = 400

#: (drop_prob, seed) -> what the transport that put the full ack vector on
#: every data message measured:
#: (wire msgs, wire bytes, deliveries, p50, p99, peak buffered msgs).
FULL_ACK_VECTOR = {
    (0.0, 1000): (4040, 701280, 2800, 3.9968446648218645, 4.982808279924882, 15),
    (0.0, 1001): (4040, 701280, 2800, 4.007587316037416, 4.977559061065321, 15),
    (0.0, 1002): (4040, 701280, 2800, 4.021084172821219, 4.975284555903158, 15),
    (0.0, 1003): (4040, 701280, 2800, 3.991718076005796, 4.981983534021126, 15),
    (0.05, 1000): (4464, 740627, 2800, 4.807014673992285, 29.01338196515985, 29),
    (0.05, 1001): (4419, 736506, 2800, 4.698748601607235, 24.74480412398225, 27),
    (0.05, 1002): (4377, 733750, 2800, 4.587829699648012, 24.171880068834838, 27),
    (0.05, 1003): (4349, 729245, 2800, 4.553473682400039, 27.060599511420918, 26),
    (0.15, 1000): (5673, 856527, 2800, 12.993034010719086, 45.62312313756041, 46),
    (0.15, 1001): (5632, 851917, 2800, 13.438905213161974, 42.752550626423044, 40),
    (0.15, 1002): (5388, 826968, 2800, 12.782000935823788, 44.9524725252806, 40),
    (0.15, 1003): (5438, 832849, 2800, 12.6560074562978, 41.40666880526959, 37),
}


def _run(seed, drop_prob):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=drop_prob))
    pids = [f"p{i}" for i in range(MEMBERS)]
    latencies = []

    def recorder(pid):
        def on_deliver(sender, payload, msg):
            if sender != pid:
                latencies.append(sim.now - msg.sent_at)
        return on_deliver

    group = build_group(sim, net, pids, ordering="causal")
    for pid, member in group.items():
        member.on_deliver = recorder(pid)
    for k in range(MULTICASTS):
        sim.call_at(1.0 + k, group[pids[k % MEMBERS]].multicast, k)
    sim.run(until=MULTICASTS + 2000.0)
    latencies.sort()
    n = len(latencies)
    peak = max(m.stack.layer("stability").peak_buffered for m in group.values())
    return (net.stats.sent, net.stats.bytes_sent, n, latencies[n // 2],
            latencies[99 * n // 100], peak)


@pytest.mark.parametrize("drop_prob, seed", sorted(FULL_ACK_VECTOR))
def test_the_stamp_as_ack_moves_only_the_bytes(drop_prob, seed):
    wire, wire_bytes, deliveries, p50, p99, peak = _run(seed, drop_prob)
    full_wire, full_bytes, *full_rest = FULL_ACK_VECTOR[(drop_prob, seed)]
    assert wire == full_wire
    assert [deliveries, p50, p99, peak] == full_rest
    assert wire_bytes < full_bytes
