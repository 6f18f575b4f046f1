"""Property-based membership tests: random crash schedules, views converge."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catocs import build_group
from repro.sim import EventTrace, FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


@given(
    size=st.integers(min_value=3, max_value=7),
    crashes=st.lists(st.floats(min_value=30.0, max_value=400.0),
                     min_size=1, max_size=2),
    seed=st.integers(0, 300),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_survivors_converge_on_membership_after_random_crashes(size, crashes, seed):
    # Never crash so many that fewer than 2 survive.
    crashes = crashes[: size - 2]
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=3.0))
    pids = [f"p{i}" for i in range(size)]
    members = build_group(sim, net, pids, ordering="causal",
                          with_membership=True, trace=EventTrace(),
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    injector = FailureInjector(sim, net)
    victims = pids[-len(crashes):]
    for at, victim in zip(sorted(crashes), victims):
        injector.crash_at(at, victim)
    # keep some traffic flowing throughout
    for k in range(30):
        sim.call_at(5.0 + k * 15.0, members[pids[0]].multicast, f"m{k}")
    sim.run(until=3500)

    survivors = [m for m in members.values() if m.alive]
    expected_members = tuple(sorted(set(pids) - set(victims)))
    views = {tuple(sorted(m.view_members)) for m in survivors}
    assert views == {expected_members}, views
    ids = {m.view_id for m in survivors}
    assert len(ids) == 1
    assert_judged(members, "causal", 30)  # p0's stream reached every survivor


@given(seed=st.integers(0, 300))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_partition_heal_without_crash_rejoins_suspicions(seed):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = ["p0", "p1", "p2", "p3"]
    members = build_group(sim, net, pids, ordering="causal",
                          with_membership=False)
    # detectors only, no view manager: suspicion must clear after healing
    from repro.catocs import HeartbeatDetector
    detectors = {pid: HeartbeatDetector(members[pid], period=8.0, timeout=28.0)
                 for pid in pids}
    injector = FailureInjector(sim, net)
    injector.partition_at(50.0, {"p0", "p1"}, {"p2", "p3"})
    injector.heal_at(200.0)
    sim.run(until=600)
    for member in members.values():
        assert all(member.believes_alive(p) for p in pids), member.pid
