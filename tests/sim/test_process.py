"""Unit tests for the process/actor model."""

from repro.sim import LinkModel, Network, Process, Simulator


class Counter(Process):
    def __init__(self, sim, net, pid):
        super().__init__(sim, net, pid)
        self.started = 0
        self.crashes = 0
        self.recoveries = 0
        self.ticks = []

    def on_start(self):
        self.started += 1

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def build():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=1.0))
    return sim, net, Counter(sim, net, "p")


def test_on_start_called_once():
    sim, net, p = build()
    sim.run()
    assert p.started == 1


def test_timer_fires_when_alive():
    sim, net, p = build()
    p.set_timer(5.0, p.ticks.append, "t")
    sim.run()
    assert p.ticks == ["t"]


def test_crash_cancels_timers():
    sim, net, p = build()
    p.set_timer(5.0, p.ticks.append, "t")
    sim.call_at(1.0, p.crash)
    sim.run()
    assert p.ticks == []
    assert p.crashes == 1


def test_timer_armed_before_crash_does_not_fire_after_recover():
    sim, net, p = build()
    p.set_timer(10.0, p.ticks.append, "old")
    sim.call_at(1.0, p.crash)
    sim.call_at(2.0, p.recover)
    sim.run()
    assert p.ticks == []
    assert p.recoveries == 1


def test_crash_idempotent_and_recover_idempotent():
    sim, net, p = build()
    p.crash()
    p.crash()
    assert p.crash_count == 1
    p.recover()
    p.recover()
    assert p.recoveries == 1


def test_timers_after_recovery_work():
    sim, net, p = build()
    sim.call_at(1.0, p.crash)
    sim.call_at(2.0, p.recover)
    sim.call_at(3.0, p.set_timer, 2.0, p.ticks.append, "fresh")
    sim.run()
    assert p.ticks == ["fresh"]


def test_on_start_suppressed_if_crashed_at_time_zero():
    sim = Simulator()
    net = Network(sim, LinkModel())
    p = Counter(sim, net, "p")
    p.crash()  # before the kernel runs the start event
    sim.run()
    assert p.started == 0


def test_timer_list_stays_bounded_across_fire_and_rearm():
    # A long-lived process (gossip tick, NAK timers) re-arms for hours;
    # fired handles must not accumulate, and crash() must still reach the
    # one timer that is pending.
    sim, net, p = build()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 10_000:
            p.set_timer(1.0, tick)

    p.set_timer(1.0, tick)
    sim.run()
    assert len(fired) == 10_000
    assert len(p._timers) <= 32

    pending = p.set_timer(5.0, p.ticks.append, "late")
    p.crash()
    assert not pending.active
    sim.run()
    assert p.ticks == []
