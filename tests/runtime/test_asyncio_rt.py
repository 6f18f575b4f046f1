"""The asyncio clock and its timer handles.

:class:`AsyncioClock` and ``_HandleTimer`` must present the simulator's
clock/``Timer`` surface over wall-clock ``loop.call_later`` timers.  The
protocol stack running on top of them is covered over real sockets in
``tests/runtime/test_udp.py``.
"""

import asyncio

import pytest

from repro.runtime import AsyncioClock, UdpNetwork, run_for


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


def test_nan_delay_is_rejected():
    # max(nan, 0.0) is nan: asyncio accepted it, reported when() == nan from
    # inside its own timer heap and ran the callback at once.
    async def scenario():
        clock = AsyncioClock(seed=0)
        hits = []
        clock.call_later(0.02, hits.append, "x")
        with pytest.raises(ValueError):
            clock.call_later(float("nan"), hits.append, "nan")
        with pytest.raises(ValueError):
            clock.call_at(float("nan"), hits.append, "nan")
        clock.call_later(-1.0, hits.append, "late")  # a passed deadline still clamps to now
        await run_for(0.06)
        return hits

    assert asyncio.run(scenario()) == ["late", "x"]


# -- loop resolution --------------------------------------------------------------


def test_process_timer_list_stays_bounded_over_handle_timers():
    # Same contract as tests/sim/test_process.py, over _HandleTimer: a host
    # process re-arming for hours must not accumulate fired handles, and
    # crash() must still cancel the pending one.
    from repro.sim.process import Process

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = AsyncioClock(loop, seed=0)
        proc = Process(clock, UdpNetwork(clock), "p")
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
