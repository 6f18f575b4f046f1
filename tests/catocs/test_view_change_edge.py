"""View-change edge cases: failures during the flush protocol itself."""

from repro.catocs import build_group
from repro.sim import EventTrace, FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


def build(seed=0, n=5):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering="causal",
                          with_membership=True, trace=EventTrace(),
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    return sim, net, pids, members


def test_second_crash_during_flush_still_converges():
    sim, net, pids, members = build()
    injector = FailureInjector(sim, net)
    injector.crash_at(50.0, "p4")
    # The second victim dies right around suspicion/flush time of the first.
    injector.crash_at(82.0, "p3")
    sim.run(until=4000)
    survivors = [m for m in members.values() if m.alive]
    views = {tuple(sorted(m.view_members)) for m in survivors}
    assert views == {("p0", "p1", "p2")}, views
    assert len({m.view_id for m in survivors}) == 1


def test_coordinator_crash_during_its_own_flush():
    sim, net, pids, members = build()
    injector = FailureInjector(sim, net)
    injector.crash_at(50.0, "p4")
    # p0 is the coordinator; it dies mid-protocol, p1 must take over.
    injector.crash_at(85.0, "p0")
    sim.run(until=4000)
    survivors = [m for m in members.values() if m.alive]
    views = {tuple(sorted(m.view_members)) for m in survivors}
    assert views == {("p1", "p2", "p3")}, views


def test_simultaneous_crashes():
    sim, net, pids, members = build()
    injector = FailureInjector(sim, net)
    injector.crash_at(50.0, "p3")
    injector.crash_at(50.0, "p4")
    sim.run(until=4000)
    survivors = [m for m in members.values() if m.alive]
    views = {tuple(sorted(m.view_members)) for m in survivors}
    assert views == {("p0", "p1", "p2")}, views


def test_traffic_across_double_view_change_is_complete_and_ordered():
    sim, net, pids, members = build()
    injector = FailureInjector(sim, net)
    injector.crash_at(100.0, "p4")
    injector.crash_at(500.0, "p3")
    for k in range(50):
        sim.call_at(10.0 + k * 15.0, members["p1"].multicast, f"m{k:02d}")
    sim.run(until=5000)
    assert_judged(members, "causal", 50)
