"""Edge paths of the simulation substrate: orphaned timers, clock sync
bookkeeping, link-model lookup and the traffic counters."""

import gc

import pytest

from repro.sim import ClockSyncService, LinkModel, LocalClock, Network, Process, Simulator
from repro.sim.network import NetworkStats


class Recorder(Process):
    def __init__(self, sim, network, pid):
        super().__init__(sim, network, pid)
        self.got = []

    def on_message(self, src, payload):
        self.got.append((self.sim.now, src, payload))


def _orphaned_timer():
    sim = Simulator()
    timer = sim.call_later(5.0, lambda: None)
    del sim
    gc.collect()
    return timer


def test_cancel_after_the_simulator_is_gone_marks_the_timer_cancelled():
    timer = _orphaned_timer()
    assert timer.active
    timer.cancel()
    assert timer.cancelled and not timer.active


def test_cancel_after_firing_is_a_no_op():
    sim = Simulator()
    hits = []
    timer = sim.call_later(1.0, hits.append, "x")
    sim.run()
    timer.cancel()
    assert hits == ["x"]
    assert timer.fired and not timer.cancelled


def test_clock_sync_start_is_idempotent():
    sim = Simulator(seed=1)
    clocks = {"a": LocalClock(sim, offset=0.5)}
    service = ClockSyncService(sim, clocks, period=10.0)
    service.start()
    service.start()  # must not arm a second round chain
    sim.run(until=35.0)
    assert service.rounds == 3
    assert service.sync_messages == 6


def test_clock_sync_stop_ends_the_rounds():
    sim = Simulator(seed=1)
    service = ClockSyncService(sim, {"a": LocalClock(sim)}, period=10.0)
    service.start()
    sim.call_at(25.0, service.stop)
    sim.run(until=100.0)
    assert service.rounds == 2


def test_max_skew_of_no_clocks_is_zero():
    sim = Simulator()
    assert ClockSyncService(sim, {}).max_skew() == 0.0


def test_link_falls_back_to_the_default_model():
    sim = Simulator()
    default = LinkModel(latency=4.0)
    net = Network(sim, default)
    fast = LinkModel(latency=0.5)
    net.set_link("a", "b", fast)
    assert net.link("a", "b") is fast
    assert net.link("b", "a") is default
    assert net.link("a", "c") is default


def test_symmetric_link_override_sets_both_directions():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=4.0))
    a, b = Recorder(sim, net, "a"), Recorder(sim, net, "b")
    net.set_link_symmetric("a", "b", LinkModel(latency=0.5))
    sim.call_at(1.0, a.send, "b", "ping")
    sim.call_at(1.0, b.send, "a", "pong")
    sim.run()
    assert b.got == [(1.5, "a", "ping")]
    assert a.got == [(1.5, "b", "pong")]


def test_stats_snapshot_names_every_counter():
    stats = NetworkStats(sent=3, delivered=2, dropped=1, bytes_sent=30, bytes_delivered=20)
    assert stats.snapshot() == {
        "sent": 3, "delivered": 2, "dropped": 1, "partitioned": 0,
        "to_crashed": 0, "bytes_sent": 30, "bytes_delivered": 20,
    }


def test_duplicate_process_id_is_refused():
    sim = Simulator()
    net = Network(sim)
    Recorder(sim, net, "a")
    with pytest.raises(ValueError, match="duplicate process id"):
        Recorder(sim, net, "a")
