"""Tests for the heartbeat failure detector."""

from repro.catocs import GroupMember, HeartbeatDetector
from repro.catocs.messages import Heartbeat
from repro.sim import FailureInjector, LinkModel, Network, Simulator


def build(seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0))
    pids = ["a", "b", "c"]
    members = {}
    detectors = {}
    for pid in pids:
        member = GroupMember(sim, net, pid, group="g", members=pids, ordering="raw")
        detectors[pid] = HeartbeatDetector(member, period=5.0, timeout=18.0)
        members[pid] = member
    return sim, net, members, detectors


def test_no_suspicion_while_everyone_beats():
    sim, net, members, detectors = build()
    sim.run(until=500)
    for member in members.values():
        assert all(member.believes_alive(p) for p in member.view_members)


def test_crashed_member_gets_suspected():
    sim, net, members, detectors = build()
    suspicions = []
    detectors["a"].on_suspect.append(suspicions.append)
    FailureInjector(sim, net).crash_at(50.0, "c")
    sim.run(until=200)
    assert "c" in suspicions
    assert not members["a"].believes_alive("c")
    assert members["a"].believes_alive("b")


def test_recovered_member_is_unsuspected_on_next_heartbeat():
    sim, net, members, detectors = build()
    injector = FailureInjector(sim, net)
    injector.crash_at(50.0, "c")
    injector.recover_at(150.0, "c")
    # After recovery c's heartbeat timer is gone; restart its beats.
    sim.call_at(151.0, detectors["c"]._tick)
    sim.run(until=400)
    assert members["a"].believes_alive("c")


def test_partition_causes_mutual_suspicion_then_heals():
    sim, net, members, detectors = build()
    injector = FailureInjector(sim, net)
    injector.partition_at(30.0, {"a", "b"}, {"c"})
    sim.run(until=100)
    assert not members["a"].believes_alive("c")
    assert not members["c"].believes_alive("a")
    injector.heal_at(110.0)
    sim.run(until=300)
    assert members["a"].believes_alive("c")
    assert members["c"].believes_alive("a")


def test_heartbeat_cost_accounted():
    sim, net, members, detectors = build()
    sim.run(until=100)
    # ~20 periods x 2 peers each
    assert detectors["a"].heartbeats_sent >= 30


class HeartbeatLossNetwork(Network):
    """Loses every heartbeat ``silenced`` sends; its other packets pass.
    A fan-out goes through ``send`` once per destination."""

    def __init__(self, sim, link, silenced):
        super().__init__(sim, link)
        self.silenced = silenced

    def send(self, src, dst, payload, size=None):
        if src == self.silenced and isinstance(payload, Heartbeat):
            return None
        return super().send(src, dst, payload, size)


def build_silenced(multicast_every):
    """``build`` with every heartbeat of c lost; c multicasts every
    ``multicast_every`` units (never if None)."""
    sim = Simulator(seed=0)
    net = HeartbeatLossNetwork(sim, LinkModel(latency=3.0), silenced="c")
    pids = ["a", "b", "c"]
    members = {}
    for pid in pids:
        members[pid] = GroupMember(sim, net, pid, group="g", members=pids, ordering="raw")
        HeartbeatDetector(members[pid], period=5.0, timeout=18.0)
    if multicast_every is not None:
        for k in range(int(500 / multicast_every)):
            sim.call_at(1.0 + k * multicast_every, members["c"].multicast, k)
    return sim, net, members


def test_any_packet_is_liveness_evidence():
    sim, _, members = build_silenced(multicast_every=10.0)
    sim.run(until=500)
    assert members["a"].believes_alive("c") and members["b"].believes_alive("c")
    # without the multicasts the lost heartbeats get c suspected
    sim, _, members = build_silenced(multicast_every=None)
    sim.run(until=500)
    assert not members["a"].believes_alive("c")


def test_a_crashed_sender_is_suspected_within_timeout_plus_period_of_its_last_packet():
    """c multicasts every unit right up to its crash.  Its last packet lands
    one latency after the crash, and the first tick after the timeout has
    lapsed from there, at most one period later, suspects c."""
    sim, net, members, detectors = build()
    for k in range(49):
        sim.call_at(1.0 + k, members["c"].multicast, k)
    suspected_at = []
    detectors["a"].on_suspect.append(lambda pid: suspected_at.append((sim.now, pid)))
    FailureInjector(sim, net).crash_at(50.0, "c")
    sim.run(until=200)
    (at, pid), = suspected_at
    assert pid == "c"
    assert at <= 50.0 + 3.0 + detectors["a"].timeout + detectors["a"].period
