"""Joining a running group: the new member participates from the next view."""

import pytest

from repro.catocs import GroupMember, HeartbeatDetector, ViewManager, build_group
from repro.sim import LinkModel, Network, Simulator


def build(seed=0, ordering="causal"):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = ["p0", "p1", "p2"]
    members = build_group(sim, net, pids, ordering=ordering,
                          with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    return sim, net, pids, members


def add_joiner(sim, net, pid, ordering, contact):
    joiner = GroupMember(sim, net, pid, group="group", members=[pid],
                         ordering=ordering)
    detector = HeartbeatDetector(joiner, period=8.0, timeout=28.0)
    manager = ViewManager(joiner, detector)
    sim.call_at(100.0, manager.request_join, contact)
    return joiner


def test_join_installs_everywhere_and_joiner_participates():
    sim, net, pids, members = build()
    joiner = add_joiner(sim, net, "p9", "causal", "p1")
    sim.call_at(400.0, joiner.multicast, "hello-from-p9")
    sim.call_at(450.0, members["p0"].multicast, "welcome")
    sim.run(until=3000)
    everyone = list(members.values()) + [joiner]
    for m in everyone:
        assert set(m.view_members) == {"p0", "p1", "p2", "p9"}, m.pid
        got = m.delivered_payloads()
        assert "hello-from-p9" in got and "welcome" in got, (m.pid, got)


def test_joiner_skips_history_but_gets_everything_after():
    sim, net, pids, members = build()
    for k in range(5):
        sim.call_at(10.0 + k * 10.0, members["p0"].multicast, f"old{k}")
    joiner = add_joiner(sim, net, "p9", "causal", "p0")
    for k in range(5):
        sim.call_at(400.0 + k * 10.0, members["p0"].multicast, f"new{k}")
    sim.run(until=3000)
    got = joiner.delivered_payloads()
    assert [p for p in got if str(p).startswith("new")] == [f"new{k}" for k in range(5)]
    assert not any(str(p).startswith("old") for p in got)
    # incumbents received both eras
    for m in members.values():
        assert len(m.delivered_payloads()) == 10


def test_join_under_total_order_keeps_identical_sequences():
    sim, net, pids, members = build(ordering="total-seq")
    joiner = add_joiner(sim, net, "p9", "total-seq", "p2")
    for k in range(8):
        sender = pids[k % 3]
        sim.call_at(400.0 + k * 15.0, members[sender].multicast, f"m{k}")
        if k % 3 == 0:
            sim.call_at(405.0 + k * 15.0, joiner.multicast, f"j{k}")
    sim.run(until=5000)
    everyone = list(members.values()) + [joiner]
    post_join = [tuple(p for p in m.delivered_payloads()
                       if str(p).startswith(("m", "j"))) for m in everyone]
    assert all(len(o) == 8 + 3 for o in post_join), [len(o) for o in post_join]
    assert len(set(post_join)) == 1, post_join


def test_join_request_via_non_coordinator_is_forwarded():
    sim, net, pids, members = build()
    joiner = add_joiner(sim, net, "p9", "causal", "p2")  # p2 != coordinator
    sim.run(until=2000)
    assert set(joiner.view_members) == {"p0", "p1", "p2", "p9"}


def set_loss(net, pids, drop):
    for a in pids:
        for b in pids:
            if a != b:
                net.set_link(a, b, LinkModel(latency=5.0, jitter=2.0, drop_prob=drop))


@pytest.mark.parametrize("ordering", ["causal", "total-seq", "total-agreed"])
def test_own_matrix_row_mirrors_contiguous_after_every_event(ordering):
    # The stability layer is told only the one count a send or receipt
    # moved, and a joiner's fast-forward writes ``contiguous`` directly,
    # relying on the matrix rebuild that follows it in the same event.  A
    # row that falls behind ``contiguous`` stalls the stable frontier for
    # good, so hold the two equal after every event of a schedule with
    # NAK repair, a join mid-traffic and a leave.  (Membership control is
    # not repaired, so the links lose packets only between view changes.)
    sim, net, pids, members = build(seed=3, ordering=ordering)
    joiner = add_joiner(sim, net, "p9", ordering, "p1")
    everyone = list(members.values()) + [joiner]
    for start, end in ((0.0, 95.0), (300.0, 580.0)):
        sim.call_at(start, set_loss, net, [*pids, "p9"], 0.2)
        sim.call_at(end, set_loss, net, [*pids, "p9"], 0.0)
    for k in range(45):
        sim.call_at(20.0 + k * 12.0, members[pids[k % 3]].multicast, f"m{k}")
    for k in range(8):
        sim.call_at(420.0 + k * 12.0, joiner.multicast, f"j{k}")
    sim.call_at(600.0, members["p2"].membership.leave)
    checked = 0
    while sim.now < 1500.0 and sim.step():
        for m in everyone:
            if m.alive:
                own = m.stack.layer("stability").matrix.row(m.pid)
                counts = m.stack.layer("dedup").contiguous
                assert all(own.get(pid, 0) == n for pid, n in counts.items()), (sim.now, m.pid)
                checked += 1
    assert set(joiner.view_members) == {"p0", "p1", "p9"}
    assert joiner.stack.layer("dedup").contiguous["p0"] > 0
    assert sum(m.stack.layer("dedup").retransmissions for m in everyone) > 0
    for m in everyone:  # the frontier kept moving: nothing of a member's is left
        buffer = m.stack.layer("stability").buffer
        assert not [mid for mid in buffer if mid[0] in m.view_members], m.pid
    assert checked > 1000
