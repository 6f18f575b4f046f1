"""Tests for flush-and-install membership: suspicion, flush, install."""

from repro.catocs import build_group
from repro.catocs.messages import ViewInstall
from repro.sim import EventTrace, FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


def build(seed=0, n=4, drop=0.0):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0, drop_prob=drop))
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering="causal",
                          with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=30.0, trace=EventTrace())
    return sim, net, members


def test_crash_produces_agreed_new_view():
    sim, net, members = build()
    FailureInjector(sim, net).crash_at(50.0, "p3")
    sim.run(until=1500)
    survivors = [m for m in members.values() if m.alive]
    assert all(m.view_id == 1 for m in survivors)
    views = {tuple(sorted(m.view_members)) for m in survivors}
    assert views == {("p0", "p1", "p2")}


def test_view_change_records_metrics():
    sim, net, members = build()
    FailureInjector(sim, net).crash_at(50.0, "p2")
    sim.run(until=1500)
    survivors = [m for m in members.values() if m.alive]
    histories = [m.membership.view_history for m in survivors]
    assert all(len(h) == 1 for h in histories)
    record = histories[0][-1]
    assert record.view_id == 1
    assert record.duration >= 0
    assert sum(m.membership.view_change_messages for m in survivors) > 0


def test_sends_during_flush_are_queued_then_flushed():
    sim, net, members = build()
    FailureInjector(sim, net).crash_at(50.0, "p3")
    # Hammer multicasts across the whole run, including during the flush.
    for k in range(60):
        sim.call_at(10.0 + k * 3.0, members["p1"].multicast, f"m{k:02d}")
    sim.run(until=3000)
    assert_judged(members, "causal", 60)
    assert members["p1"].total_suppressed_time > 0


def test_two_sequential_crashes_two_view_changes():
    sim, net, members = build(n=5)
    injector = FailureInjector(sim, net)
    injector.crash_at(50.0, "p4")
    injector.crash_at(600.0, "p3")
    sim.run(until=3000)
    survivors = [m for m in members.values() if m.alive]
    assert all(m.view_id == 2 for m in survivors)
    assert {tuple(sorted(m.view_members)) for m in survivors} == {("p0", "p1", "p2")}


def test_coordinator_crash_is_survivable():
    # p0 is the coordinator; when IT dies, the next-lowest pid takes over.
    sim, net, members = build()
    FailureInjector(sim, net).crash_at(50.0, "p0")
    sim.run(until=2000)
    survivors = [m for m in members.values() if m.alive]
    assert all(m.view_id >= 1 for m in survivors)
    assert {tuple(sorted(m.view_members)) for m in survivors} == {("p1", "p2", "p3")}


def test_messages_lost_with_crashed_sender_are_forgiven():
    # p3 multicasts but the copies are partitioned away from everyone;
    # p3 then crashes.  A later message from p1 that causally follows
    # p3's (p1 never saw it, so no real dependency) must still deliver.
    sim, net, members = build()
    net.partition({"p3"}, {"p0", "p1", "p2"})
    sim.call_at(10.0, members["p3"].multicast, "doomed")
    sim.call_at(20.0, lambda: members["p3"].crash())
    sim.call_at(21.0, net.heal)
    sim.call_at(400.0, members["p1"].multicast, "after")
    sim.run(until=3000)
    survivors = [m for m in members.values() if m.alive]
    for m in survivors:
        assert "after" in m.delivered_payloads(), m.pid


class InstallLosingNetwork(Network):
    """Logs every ``ViewInstall`` sent as ``(time, src, dst)`` and loses
    the first ``lose`` of them to each pid in ``lose_to``."""

    def __init__(self, sim, link, lose_to=(), lose=1):
        super().__init__(sim, link)
        self.installs = []
        self.lose_to = set(lose_to)
        self.left = {pid: lose for pid in self.lose_to}

    def send(self, src, dst, payload, size=None):
        if isinstance(payload, ViewInstall):
            self.installs.append((self.sim.now, src, dst))
            if self.left.get(dst):
                self.left[dst] -= 1
                return None
        return super().send(src, dst, payload, size)


def test_a_lost_install_is_re_sent_when_a_heartbeat_shows_the_old_view():
    sim = Simulator(seed=0)
    net = InstallLosingNetwork(sim, LinkModel(latency=5.0, jitter=2.0), lose_to={"p2"})
    members = build_group(sim, net, ["p0", "p1", "p2", "p3"], ordering="causal",
                          with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=30.0)
    FailureInjector(sim, net).crash_at(50.0, "p3")
    sim.run(until=1500)
    survivors = [m for m in members.values() if m.alive]
    assert {(m.view_id, m.view_members) for m in survivors} == {(1, ("p0", "p1", "p2"))}
    installed = members["p0"].membership.view_history[-1].installed_at
    first = [(t, src) for t, src, dst in net.installs if dst == "p2"]
    assert first[0] == (installed, "p0")  # lost
    # Each member that has the view answers p2's next stale heartbeat once
    # flush_retry has passed since it installed; none is re-sent after.
    flush_retry = members["p0"].membership.flush_retry
    resent = first[1:]
    assert resent and {src for _, src in resent} <= {"p0", "p1"}
    assert all(t >= installed + flush_retry for t, _ in resent)
    assert not members["p2"].suppressed
    # p2 installs within one link delay (latency 5 + jitter 2) of a re-send
    assert (members["p2"].membership.view_history[-1].installed_at
            <= max(t for t, _ in resent) + 5.0 + 2.0)


def test_heartbeats_in_flight_at_the_install_draw_no_re_send():
    sim = Simulator(seed=0)
    net = InstallLosingNetwork(sim, LinkModel(latency=5.0, jitter=2.0))
    members = build_group(sim, net, ["p0", "p1", "p2", "p3"], ordering="causal",
                          with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=30.0)
    FailureInjector(sim, net).crash_at(50.0, "p3")
    sim.run(until=1500)
    assert [dst for _, _, dst in net.installs] == ["p1", "p2"]
    # two flush requests, two installs
    assert members["p0"].membership.view_change_messages == 4


def test_every_survivor_of_a_lossy_leave_ends_in_one_view():
    """Four agreed-order members at 5% loss, p3 leaving at 60 (seed 22 of
    the peer fan-out pin): the first install sent to p2 is lost, and p2 gets
    it again when its heartbeat shows view 0.  Without the re-send p2 stayed
    in view 0 with p3 in it, send-suppressed, for the rest of the run.  The
    loss is scripted, not left to the seed's draws, which any change to the
    traffic re-rolls."""
    sim = Simulator(seed=22)
    net = InstallLosingNetwork(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=0.05),
                               lose_to={"p2"})
    pids = ["p0", "p1", "p2", "p3"]
    members = build_group(sim, net, pids, ordering="total-agreed", with_membership=True)
    for k in range(40):
        sim.call_at(1.0 + k, members[pids[k % 4]].multicast, k)
    sim.call_at(60.0, members["p3"].membership.leave)
    sim.run(until=600.0)
    survivors = [members[pid] for pid in ("p0", "p1", "p2")]
    assert {(m.view_id, m.view_members) for m in survivors} == {(1, ("p0", "p1", "p2"))}
    assert not any(m.suppressed for m in survivors)
    assert len([1 for _, _, dst in net.installs if dst == "p2"]) > 1
    assert all(len(m.delivered) == 40 for m in survivors)
