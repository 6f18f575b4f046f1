"""Sequencer failover: the total order survives the sequencer's death."""

from repro.catocs import build_group
from repro.sim import FailureInjector, LinkModel, Network, Simulator


def build(seed=0, n=4):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = [f"p{i}" for i in range(n)]
    members = build_group(sim, net, pids, ordering="total-seq",
                          with_membership=True,
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
    survivors = [m for m in members.values() if m.alive]
    orders = [tuple(m.delivered_payloads()) for m in survivors]
    assert all(len(o) == 16 for o in orders), [len(o) for o in orders]
    assert len(set(orders)) == 1, orders
    # the takeover really happened
    assert all(m.sequencer_pid() == "p1" for m in survivors)


def test_sequencers_own_inflight_messages_resolve():
    sim, net, pids, members = build()
    # The sequencer multicasts and dies; its assignments travelled with the
    # flush, so survivors agree on whether/where its message lands.
    sim.call_at(10.0, members["p0"].multicast, "from-the-sequencer")
    FailureInjector(sim, net).crash_at(30.0, "p0")
    sim.call_at(300.0, members["p1"].multicast, "after")
    sim.run(until=6000)
    survivors = [m for m in members.values() if m.alive]
    orders = [tuple(m.delivered_payloads()) for m in survivors]
    for order in orders:
        assert "after" in order
    assert len(set(orders)) == 1, orders


def test_back_to_back_sequencer_failovers():
    sim, net, pids, members = build(n=5)
    injector = FailureInjector(sim, net)
    injector.crash_at(120.0, "p0")
    injector.crash_at(600.0, "p1")
    for k in range(20):
        sender = pids[2 + k % 3]
        sim.call_at(10.0 + k * 25.0, members[sender].multicast, f"m{k:02d}")
    sim.run(until=8000)
    survivors = [m for m in members.values() if m.alive]
    orders = [tuple(m.delivered_payloads()) for m in survivors]
    assert all(len(o) == 20 for o in orders), [len(o) for o in orders]
    assert len(set(orders)) == 1
    assert all(m.sequencer_pid() == "p2" for m in survivors)


def _failover_sweep_run(seed, gap):
    """The failover sweep's setup: p0, the sequencer, crashes at 150 while
    p1-p3 multicast 60 messages, one every ``gap`` units from 10."""
    sim, net, pids, members = build(seed=seed)
    FailureInjector(sim, net).crash_at(150.0, "p0")
    for k in range(60):
        sender = pids[1 + k % 3]
        sim.call_at(10.0 + k * gap, members[sender].multicast, f"m{k:02d}")
    sim.run(until=6000)
    return [m for m in members.values() if m.alive]


def test_a_member_never_suspects_itself_after_failover():
    # p1's token-repair timer, armed before p1 became sequencer, once fired
    # after it: p1 asked itself for a token, the self-addressed packet
    # refreshed last_heard["p1"], and p1 later suspected itself.  p1 then
    # took p2 for the sequencer, p2 and p3 took p1, and every survivor
    # stopped at 31 of 60.
    survivors = _failover_sweep_run(seed=3, gap=7)
    assert all(m.believes_alive(m.pid) for m in survivors)
    orders = [tuple(m.delivered_payloads()) for m in survivors]
    assert all(len(o) == 60 for o in orders), [len(o) for o in orders]
    assert len(set(orders)) == 1


def test_a_new_sequencer_continues_past_received_assignments():
    # p1 became sequencer by suspicion having assigned nothing itself, and
    # numbered from 0 again: it overwrote an index already delivered, and
    # the message it assigned there, ("p3", 19), was never delivered.
    survivors = _failover_sweep_run(seed=0, gap=3)
    for member in survivors:
        assert ("p3", 19) in [r.msg_id for r in member.delivered], member.pid
    orders = [tuple(m.delivered_payloads()) for m in survivors]
    assert all(len(o) == 60 for o in orders), [len(o) for o in orders]
    assert len(set(orders)) == 1
