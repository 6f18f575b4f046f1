"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


def test_events_execute_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(5.0, order.append, "b")
    sim.call_later(1.0, order.append, "a")
    sim.call_later(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_equal_times_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.call_at(3.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    hits = []
    sim.call_at(10.0, hits.append, "edge")
    sim.call_at(10.5, hits.append, "beyond")
    sim.run(until=10.0)
    assert hits == ["edge"]
    assert sim.now == 10.0
    sim.run()
    assert hits == ["edge", "beyond"]


def test_run_until_with_empty_queue_still_advances():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_cancel_prevents_execution():
    sim = Simulator()
    hits = []
    timer = sim.call_later(5.0, hits.append, "x")
    timer.cancel()
    sim.run()
    assert hits == []
    assert sim.pending == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.call_later(5.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


@pytest.mark.parametrize("schedule", ["call_later", "call_at"])
def test_nan_time_rejected(schedule):
    # NaN compares false with everything: once in the heap it breaks the
    # order of the timers around it (2, nan, 1, 3, 0.5 fired 1, 0.5, 2, ...).
    sim = Simulator()
    hits = []
    for when in (2.0, 1.0, 3.0, 0.5):
        getattr(sim, schedule)(when, hits.append, when)
    with pytest.raises(ValueError):
        getattr(sim, schedule)(float("nan"), hits.append, "nan")
    assert sim.pending == 4
    sim.run()
    assert hits == [0.5, 1.0, 2.0, 3.0]


def test_stop_halts_run():
    sim = Simulator()
    hits = []
    sim.call_at(1.0, hits.append, "a")
    sim.call_at(2.0, sim.stop)
    sim.call_at(3.0, hits.append, "b")
    sim.run()
    assert hits == ["a"]
    sim.run()
    assert hits == ["a", "b"]


def test_max_events_budget():
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.call_at(float(i), hits.append, i)
    sim.run(max_events=4)
    assert hits == [0, 1, 2, 3]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    hits = []

    def chain(n: int) -> None:
        hits.append(n)
        if n < 3:
            sim.call_later(1.0, chain, n + 1)

    sim.call_at(0.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_rng_is_deterministic_per_seed():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    c = Simulator(seed=8)
    series_a = [a.rng.random() for _ in range(5)]
    series_b = [b.rng.random() for _ in range(5)]
    series_c = [c.rng.random() for _ in range(5)]
    assert series_a == series_b
    assert series_a != series_c


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_held_handle_keeps_its_state_after_firing():
    # An Event is never reused: what a holder reads off a fired or cancelled
    # handle stays true while later events — at the same instant too — come
    # and go through the queue.
    sim = Simulator()
    held = [sim.call_later(float(i), lambda: None) for i in range(5)]
    dropped = sim.call_later(2.0, lambda: None)
    dropped.cancel()
    sim.run()
    for _ in range(8):
        sim.call_at(4.0, lambda: None)
        sim.post_at(4.0, lambda: None)
    sim.run()
    assert all(timer.fired and not timer.cancelled and not timer.active for timer in held)
    assert [timer.time for timer in held] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert dropped.cancelled and not dropped.fired and dropped.time == 2.0


# -- handle-free entries (Simulator.post_at) beside Timer-carrying ones -----------


class _Recorder:
    def __init__(self):
        self.seen = []

    def note(self, tag):
        self.seen.append(tag)


def test_equal_time_entries_of_both_kinds_fire_in_seq_order():
    # Same time, so the heap falls through to seq — and must stop there: a
    # lambda and a bound method cannot be compared (TypeError if reached).
    sim = Simulator()
    rec = _Recorder()
    for i in range(40):
        if i % 2:
            sim.post_at(3.0, rec.note, i)
        else:
            sim.post_at(3.0, lambda i=i: rec.seen.append(i))
        sim.call_at(3.0, rec.note, i + 0.5)
    sim.run()
    assert rec.seen == [x for i in range(40) for x in (i, i + 0.5)]
    assert sim.events_executed == 80


@pytest.mark.parametrize("when", [5.0, float("nan")], ids=["past", "nan"])
def test_post_at_rejects_the_past_and_nan(when):
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.post_at(when, lambda: None)
    assert sim.pending == 0


def test_post_at_entries_count_as_pending_and_against_the_budget():
    sim = Simulator()
    hits = []
    for i in range(10):
        (sim.post_at if i % 2 else sim.call_at)(float(i), hits.append, i)
    assert sim.pending == sim.queue_depth == 10
    sim.run(max_events=4)
    assert hits == [0, 1, 2, 3]
    assert (sim.events_executed, sim.pending) == (4, 6)
    assert sim.step() and hits[-1] == 4
    sim.run(until=6.0)
    assert hits == [0, 1, 2, 3, 4, 5, 6]


def test_run_until_nan_rejected():
    # `time > nan` is never true: the horizon would vanish and run() drain.
    sim = Simulator()
    hits = []
    sim.call_later(5.0, hits.append, "x")
    with pytest.raises(ValueError):
        sim.run(until=float("nan"))
    assert hits == [] and sim.now == 0.0 and sim.pending == 1


def test_mass_cancellation_inside_callback_keeps_draining():
    # A callback that cancels enough timers to trigger compaction while
    # run() holds the heap in a local: events after the compaction point
    # must still fire (regression guard for in-place compaction — a rebind
    # would strand the run loop on a stale list).
    sim = Simulator()
    doomed = [sim.call_later(500.0 + (i % 3), lambda: None) for i in range(300)]
    fired = []

    def massacre():
        for timer in doomed:
            timer.cancel()

    sim.call_later(1.0, massacre)
    sim.call_later(2.0, fired.append, "after")
    # Handle-free entries share the heap being compacted: below, among and
    # above the doomed timers, none of them may be shed or stranded.
    for when in (1.5, 500.0, 501.5, 900.0):
        sim.post_at(when, fired.append, when)
    sim.run()
    assert fired == [1.5, "after", 500.0, 501.5, 900.0]
    assert sim.pending == 0
    assert sim.compactions > 0
    assert sim.tombstones_shed == 300


# -- model-based differential: the heap kernel vs a list and min() ----------------


class ModelSim:
    """The obviously-correct event queue: an unsorted list, ``min()`` by
    ``(time, seq)``, cancel = remove.  Specifies what :class:`Simulator`
    must do; knows nothing about heaps, tombstones or tuples."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._seq = 0
        self._queue = []  # [time, seq, fn, args] entries, unordered

    @property
    def pending(self):
        return len(self._queue)

    def call_later(self, delay, fn, *args):
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        self._queue.append(entry)
        return entry

    def post_at(self, time, fn, *args):
        self._queue.append([time, self._seq, fn, args])
        self._seq += 1

    def cancel(self, entry):
        if entry in self._queue:  # no-op once fired or cancelled
            self._queue.remove(entry)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._queue:
            entry = min(self._queue, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self._queue.remove(entry)
            self.now = entry[0]
            self.events_executed += 1
            executed += 1
            entry[2](*entry[3])
        if until is not None and self.now < until:
            self.now = until

    def step(self):
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed != before


def _run_program(sim, cancel, ops):
    """Drive one op list through ``sim``; return the observable trace.

    ``cancel(handle)`` abstracts the one surface difference between the
    kernel (``timer.cancel()``) and the model (``model.cancel(entry)``).
    """
    trace = []
    timers = []
    counter = [0]

    def fire(tag):
        trace.append(("fire", tag, sim.now))
        # Every third firing schedules a follow-up, so execution order
        # feeds back into the schedule (order bugs compound, not hide).
        counter[0] += 1
        if counter[0] % 3 == 0:
            timers.append(sim.call_later(2.5, fire, f"{tag}+"))

    for op, value in ops:
        if op == "sched":
            # Mix of zero, sub-unit, near and far delays.
            delay = [0.0, 0.25, 1.0, 7.5, 900.0, 1500.0, 3000.0][value % 7]
            timers.append(sim.call_later(delay, fire, len(timers)))
        elif op == "post":
            # No handle: nothing joins `timers`, nothing can cancel it.
            delay = [0.0, 0.25, 1.0, 7.5, 900.0, 1500.0, 3000.0][value % 7]
            sim.post_at(sim.now + delay, fire, f"p{value}")
        elif op == "cancel" and timers:
            cancel(timers[value % len(timers)])
        elif op == "step":
            trace.append(("step", sim.step()))
        elif op == "until":
            # Fractional horizons: run() must be able to stop between two
            # pending events with cancelled ones at the head of the queue.
            sim.run(until=sim.now + (value % 200) * 0.25)
        elif op == "burst":
            sim.run(max_events=value % 5)
        trace.append(("state", sim.now, sim.events_executed, sim.pending))
        if isinstance(sim, Simulator):
            # Conservation of structure: every heap slot is a live event
            # or a counted tombstone, after every operation.
            assert sim.queue_depth == sim.pending + sim.tombstones
    sim.run()
    return trace, sim.now, sim.events_executed, sim.pending


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["sched", "post", "cancel", "step", "until", "burst"]),
              st.integers(min_value=0, max_value=10_000)),
    max_size=60,
))
def test_simulator_matches_the_list_model(ops):
    """Identical (time, seq) execution order and observable state
    (``now``, ``events_executed``, ``pending``, ``step()``'s result) after
    every operation, for ANY program mixing Timer-carrying and handle-free
    entries."""
    model = ModelSim()
    expected = _run_program(model, model.cancel, ops)
    got = _run_program(Simulator(seed=7), lambda timer: timer.cancel(), ops)
    assert got == expected
