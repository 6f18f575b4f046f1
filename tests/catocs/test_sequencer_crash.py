"""Sequencer failover: the total order survives the sequencer's death."""

from repro.catocs import build_group
from repro.catocs.messages import DataMessage
from repro.sim import EventTrace, FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


class HoldingNetwork(Network):
    """Holds every copy of one data message ``held`` to ``dst`` sent before
    ``until`` and sends it at ``until``."""

    def __init__(self, sim, link, dst=None, held=None, until=0.0):
        super().__init__(sim, link)
        self.dst, self.held, self.until = dst, held, until

    def send(self, src, dst, payload, size=None):
        if (isinstance(payload, DataMessage) and payload.msg_id == self.held
                and dst == self.dst and self.sim.now < self.until):
            self.sim.call_at(self.until, self.send, src, dst, payload, size)
            return None
        return super().send(src, dst, payload, size)


def build(seed=0, n=4, **hold):
    sim = Simulator(seed=seed)
    net = HoldingNetwork(sim, LinkModel(latency=5.0, jitter=2.0), **hold)
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering="total-seq",
                          with_membership=True, trace=EventTrace(),
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    return sim, net, pids, members


def test_new_sequencer_takes_over_and_order_stays_identical():
    sim, net, pids, members = build()
    # p0 is the sequencer.  Kill it mid-stream; survivors keep multicasting.
    FailureInjector(sim, net).crash_at(150.0, "p0")
    for k in range(16):
        sender = pids[1 + k % 3]
        sim.call_at(10.0 + k * 20.0, members[sender].multicast, f"m{k:02d}")
    sim.run(until=6000)
    assert_judged(members, "total-seq", 16)
    # the takeover really happened
    assert all(m.sequencer_pid() == "p1" for m in members.values() if m.alive)


def test_sequencers_own_inflight_messages_resolve():
    sim, net, pids, members = build()
    # The sequencer multicasts and dies; its assignments travelled with the
    # flush, so survivors agree on whether/where its message lands.
    sim.call_at(10.0, members["p0"].multicast, "from-the-sequencer")
    FailureInjector(sim, net).crash_at(30.0, "p0")
    sim.call_at(300.0, members["p1"].multicast, "after")
    sim.run(until=6000)
    assert_judged(members, "total-seq", 2)


def test_back_to_back_sequencer_failovers():
    sim, net, pids, members = build(n=5)
    injector = FailureInjector(sim, net)
    injector.crash_at(120.0, "p0")
    injector.crash_at(600.0, "p1")
    for k in range(20):
        sender = pids[2 + k % 3]
        sim.call_at(10.0 + k * 25.0, members[sender].multicast, f"m{k:02d}")
    sim.run(until=8000)
    assert_judged(members, "total-seq", 20)
    assert all(m.sequencer_pid() == "p2" for m in members.values() if m.alive)


def _failover_sweep_run(seed, gap):
    """The failover sweep's setup: p0, the sequencer, crashes at 150 while
    p1-p3 multicast 60 messages, one every ``gap`` units from 10."""
    sim, net, pids, members = build(seed=seed)
    FailureInjector(sim, net).crash_at(150.0, "p0")
    for k in range(60):
        sender = pids[1 + k % 3]
        sim.call_at(10.0 + k * gap, members[sender].multicast, f"m{k:02d}")
    sim.run(until=6000)
    return members


def test_a_member_never_suspects_itself_after_failover():
    # p1's token-repair timer, armed before p1 became sequencer, once fired
    # after it: p1 asked itself for a token, the self-addressed packet
    # refreshed last_heard["p1"], and p1 later suspected itself.  p1 then
    # took p2 for the sequencer, p2 and p3 took p1, and every survivor
    # stopped at 31 of 60.
    members = _failover_sweep_run(seed=3, gap=7)
    assert all(m.believes_alive(m.pid) for m in members.values() if m.alive)
    assert_judged(members, "total-seq", 60)


def test_a_new_sequencer_continues_past_received_assignments():
    # p1 became sequencer by suspicion having assigned nothing itself, and
    # numbered from 0 again: it overwrote an index already delivered, and
    # the message it assigned there, ("p3", 19), was never delivered.
    members = _failover_sweep_run(seed=0, gap=3)
    for member in members.values():
        if member.alive:
            assert ("p3", 19) in [r.msg_id for r in member.delivered], member.pid
    assert_judged(members, "total-seq", 60)


def test_a_new_sequencer_does_not_reassign_a_message_whose_token_came_first():
    # p0 orders ("p2", 1) and dies.  p1 has the token but not the data,
    # which arrives after p1 became sequencer; p1 once gave it a second
    # index, and every survivor stalled there, short of "after".
    sim, net, pids, members = build(dst="p1", held=("p2", 1), until=300.0)
    sim.call_at(10.0, members["p2"].multicast, "x")
    FailureInjector(sim, net).crash_at(30.0, "p0")
    sim.call_at(400.0, members["p1"].multicast, "after")
    sim.run(until=3000)
    survivors = [m for m in members.values() if m.alive]
    assert members["p1"].membership.view_history[-1].installed_at < 300.0
    for member in survivors:
        assert member.delivered_payloads() == ["x", "after"], member.pid
        assert list(member.ordering._order.values()) == [("p2", 1), ("p1", 1)]
