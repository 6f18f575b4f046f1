"""End-to-end determinism: identical seeds give identical executions.

Every experiment's reproducibility rests on this property — lossy networks,
jitter, protocol retries and all.  These tests run a nontrivial stack twice
and compare complete observable histories.
"""

from repro.catocs import build_group
from repro.sim import EventTrace, LinkModel, Network, Simulator


def run_stack(seed: int):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=7.0, drop_prob=0.1))
    trace = EventTrace()
    members = build_group(sim, net, ["a", "b", "c", "d"], ordering="causal",
                          trace=trace, nak_delay=8.0, ack_period=25.0)

    def react(src, payload, msg):
        if isinstance(payload, dict) and payload.get("react"):
            members["a"].multicast({"kind": "reaction", "to": payload["n"]})

    members["a"].on_deliver = react
    for k in range(15):
        sender = ["b", "c", "d"][k % 3]
        sim.call_at(1.0 + k * 9.0, members[sender].multicast,
                    {"kind": "tick", "n": k, "react": k % 4 == 0})
    sim.run(until=3000)
    history = [
        (e.time, e.pid, e.kind, e.label) for e in trace.entries
    ]
    deliveries = {
        pid: [(r.msg_id, r.delivered_at) for r in m.delivered]
        for pid, m in members.items()
    }
    stats = net.stats.snapshot()
    return history, deliveries, stats


def test_same_seed_identical_execution():
    first = run_stack(seed=1234)
    second = run_stack(seed=1234)
    assert first == second


def test_different_seed_differs_somewhere():
    first = run_stack(seed=1)
    second = run_stack(seed=2)
    assert first != second


def test_experiment_results_reproducible():
    from repro.experiments.e06_false_causality import run_ticks

    a = run_ticks(7, "causal", 0.1, 5, 10, 10.0)
    b = run_ticks(7, "causal", 0.1, 5, 10, 10.0)
    assert a == b
