"""The same protocol stack over a real asyncio event loop.

These tests run GroupMember (causal and sequencer-total ordering) and the
transaction machinery on wall-clock timers with millisecond latencies,
asserting the protocol guarantees hold outside the simulator.
"""

import asyncio

from repro.catocs.member import GroupMember
from repro.runtime import AsyncioClock, AsyncioNetwork, run_for
from repro.sim.network import LinkModel


def _build_group(clock, net, pids, ordering, **kwargs):
    kwargs.setdefault("nak_delay", 0.02)
    kwargs.setdefault("ack_period", 0.05)
    members = {}
    for pid in pids:
        members[pid] = GroupMember(
            clock, net, pid, group="g", members=pids, ordering=ordering, **kwargs
        )
    return members


def test_causal_group_over_asyncio_event_loop():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=1)
        net = AsyncioNetwork(clock, LinkModel(latency=0.004, jitter=0.004,
                                              drop_prob=0.1))
        members = _build_group(clock, net, ["a", "b", "c"], "causal")

        def react(src, payload, msg):
            if payload == "cause":
                members["b"].multicast("effect")

        members["b"].on_deliver = react
        clock.call_later(0.01, members["a"].multicast, "cause")
        clock.call_later(0.02, members["c"].multicast, "noise")
        await run_for(1.2)
        return {pid: m.delivered_payloads() for pid, m in members.items()}

    orders = asyncio.run(scenario())
    for pid, got in orders.items():
        assert sorted(got) == ["cause", "effect", "noise"], (pid, got)
        assert got.index("cause") < got.index("effect"), (pid, got)


def test_total_order_over_asyncio_event_loop():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=2)
        net = AsyncioNetwork(clock, LinkModel(latency=0.003, jitter=0.005))
        members = _build_group(clock, net, ["a", "b", "c"], "total-seq")
        for k in range(6):
            sender = ["a", "b", "c"][k % 3]
            clock.call_later(0.005 + k * 0.01, members[sender].multicast, f"m{k}")
        await run_for(0.8)
        return [tuple(m.delivered_payloads()) for m in members.values()]

    orders = asyncio.run(scenario())
    assert all(len(o) == 6 for o in orders)
    assert len(set(orders)) == 1  # identical total order on real timers


def test_loss_repair_over_asyncio():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=3)
        net = AsyncioNetwork(clock, LinkModel(latency=0.003, jitter=0.002,
                                              drop_prob=0.3))
        members = _build_group(clock, net, ["a", "b"], "raw")
        for k in range(10):
            clock.call_later(0.005 + k * 0.005, members["a"].multicast, k)
        await run_for(1.5)
        return members["b"].delivered_payloads(), net.stats

    delivered, stats = asyncio.run(scenario())
    assert sorted(delivered) == list(range(10))
    assert stats.dropped > 0  # loss actually happened and was repaired


def test_clock_and_timer_surface():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=0)
        fired = []
        t1 = clock.call_later(0.01, fired.append, "a")
        t2 = clock.call_later(0.02, fired.append, "b")
        t2.cancel()
        clock.call_at(clock.now + 0.03, fired.append, "c")
        assert clock.now < 0.005
        await run_for(0.1)
        return fired, clock.now

    fired, now = asyncio.run(scenario())
    assert fired == ["a", "c"]
    assert now >= 0.1


def test_partition_and_crash_over_asyncio():
    async def scenario():
        clock = AsyncioClock(asyncio.get_running_loop(), seed=4)
        net = AsyncioNetwork(clock, LinkModel(latency=0.003))
        members = _build_group(clock, net, ["a", "b"], "raw", ack_period=0.0)
        net.partition({"a"}, {"b"})
        clock.call_later(0.01, members["a"].multicast, "cut off")
        clock.call_later(0.05, net.heal)
        clock.call_later(0.06, members["a"].multicast, "through")
        await run_for(0.5)
        return members["b"].delivered_payloads()

    # "cut off" is eventually repaired after heal via ack-driven NAK; at
    # minimum "through" arrives.
    delivered = asyncio.run(scenario())
    assert "through" in delivered


# -- the transport seam -----------------------------------------------------------


def test_all_three_backends_implement_the_transport_seam():
    """One structural protocol, three substrates: the simulator network,
    the in-process asyncio network, and the UDP socket network."""
    from repro.runtime.transport import TRANSPORT_SURFACE, Transport, missing_surface
    from repro.sim import Simulator
    from repro.sim.network import Network

    sim = Simulator(seed=0)
    sim_net = Network(sim)
    assert missing_surface(sim_net) == ()
    assert isinstance(sim_net, Transport)

    async def scenario():
        clock = AsyncioClock(seed=0)
        results = []
        for net in (AsyncioNetwork(clock),):
            results.append((missing_surface(net), isinstance(net, Transport)))
        return results

    for missing, conforms in asyncio.run(scenario()):
        assert missing == ()
        assert conforms
    assert len(TRANSPORT_SURFACE) >= 15  # the seam is the whole Network API


# -- _HandleTimer: simulator Timer surface parity ---------------------------------
# Mirrors tests/sim/test_kernel.py and test_kernel_regressions.py.


def test_timer_inactive_after_firing():
    async def scenario():
        clock = AsyncioClock(seed=0)
        timer = clock.call_later(0.01, lambda: None)
        assert timer.active
        await run_for(0.05)
        return timer

    timer = asyncio.run(scenario())
    assert timer.fired
    assert not timer.active


def test_timer_inactive_after_cancel():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.01, hits.append, "x")
        timer.cancel()
        assert not timer.active
        timer.cancel()  # idempotent
        await run_for(0.05)
        return hits, timer

    hits, timer = asyncio.run(scenario())
    assert hits == []
    assert not timer.fired


def test_reschedule_moves_the_timer():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.02, hits.append, "x")
        moved = timer.reschedule(0.08)
        assert not timer.active  # the original handle is dead...
        assert moved.active  # ...and the fresh one owns the callback
        await run_for(0.05)
        early = list(hits)
        await run_for(0.08)
        return early, hits

    early, hits = asyncio.run(scenario())
    assert early == []  # not at the original deadline
    assert hits == ["x"]  # exactly once, at the moved deadline


def test_reschedule_after_firing_raises_instead_of_rerunning():
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        timer = clock.call_later(0.01, hits.append, "once")
        await run_for(0.05)
        assert hits == ["once"]
        try:
            timer.reschedule(0.01)
        except RuntimeError:
            pass
        else:
            raise AssertionError("reschedule after firing must raise")
        await run_for(0.05)
        return hits

    assert asyncio.run(scenario()) == ["once"]


def test_cancel_after_firing_is_a_noop():
    async def scenario():
        clock = AsyncioClock(seed=0)
        timer = clock.call_later(0.01, lambda: None)
        await run_for(0.05)
        timer.cancel()  # must not clear .fired or resurrect .active
        return timer

    timer = asyncio.run(scenario())
    assert timer.fired
    assert not timer.active


# -- loop resolution --------------------------------------------------------------


def test_process_timer_list_stays_bounded_over_handle_timers():
    # Same contract as tests/sim/test_process.py, over _HandleTimer: a host
    # process re-arming for hours must not accumulate fired handles, and
    # crash() must still cancel the pending one.
    from repro.sim.process import Process

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = AsyncioClock(loop, seed=0)
        proc = Process(clock, AsyncioNetwork(clock), "p")
        done = loop.create_future()
        fired = 0

        def tick():
            nonlocal fired
            fired += 1
            if fired < 10_000:
                proc.set_timer(0.0, tick)
            else:
                done.set_result(None)

        proc.set_timer(0.0, tick)
        await asyncio.wait_for(done, timeout=30)
        held = len(proc._timers)
        hits = []
        pending = proc.set_timer(0.02, hits.append, "late")
        proc.crash()
        await run_for(0.06)
        return fired, held, pending, hits

    fired, held, pending, hits = asyncio.run(scenario())
    assert fired == 10_000
    assert held <= 32
    assert pending.cancelled and not pending.active
    assert hits == []


def test_clock_uses_the_running_loop_by_default():
    async def scenario():
        clock = AsyncioClock(seed=0)  # no explicit loop, no deprecation path
        assert clock._loop is asyncio.get_running_loop()
        hits = []
        clock.call_later(0.01, hits.append, "ran")
        await run_for(0.05)
        return hits

    assert asyncio.run(scenario()) == ["ran"]


def test_clock_without_a_loop_fails_loudly():
    import pytest

    with pytest.raises(RuntimeError, match="running event loop"):
        AsyncioClock(seed=0)
