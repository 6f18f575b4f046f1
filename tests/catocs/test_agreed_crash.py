"""Agreed total order under member failure: liveness via suspicion + the
view change deciding the fate of in-flight ordering decisions."""

from repro.catocs import build_group
from repro.sim import EventTrace, FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


def build(seed=0, n=4):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering="total-agreed",
                          with_membership=True, trace=EventTrace(),
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    return sim, net, pids, members, None


def test_commit_proceeds_without_crashed_members_proposal():
    sim, net, pids, members, detectors = build()
    FailureInjector(sim, net).crash_at(10.0, "p3")
    # multicast after the crash: p3 will never propose.
    sim.call_at(50.0, members["p0"].multicast, "needs-agreement")
    sim.run(until=4000)
    assert_judged(members, "total-agreed", 1)


def test_stream_continues_across_crash_with_identical_order():
    sim, net, pids, members, detectors = build()
    FailureInjector(sim, net).crash_at(100.0, "p3")
    for k in range(12):
        sender = pids[k % 3]  # survivors only, to keep message set identical
        sim.call_at(10.0 + k * 20.0, members[sender].multicast, f"m{k:02d}")
    sim.run(until=6000)
    assert_judged(members, "total-agreed", 12)


def test_crashed_senders_inflight_message_resolves_consistently():
    sim, net, pids, members, detectors = build()
    # p3 multicasts and dies immediately after; its proposal collection is
    # orphaned.  Survivors must still converge on whether/where it delivers.
    sim.call_at(10.0, members["p3"].multicast, "last-words")
    FailureInjector(sim, net).crash_at(11.0, "p3")
    sim.call_at(200.0, members["p0"].multicast, "after")
    sim.run(until=6000)
    # "after" delivers everywhere; "last-words" either delivers before it
    # everywhere or nowhere (no split decisions).
    assert_judged(members, "total-agreed", 2)
