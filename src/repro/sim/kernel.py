"""Discrete-event simulation kernel.

A :class:`Simulator` owns an ordered collection of timestamped events and a
seeded random generator.  All nondeterminism in the system (latency jitter,
message loss, clock skew) is drawn from that generator, so any run is exactly
reproducible from ``(seed, parameters)`` — which is what lets the test suite
assert, e.g., that the Figure 4 trading anomaly occurs at a specific tick.

Events with equal timestamps are ordered by insertion sequence number, so the
execution order is a deterministic function of the schedule calls alone.

The event structure is one binary heap driven through C ``heapq``, owned by
the :class:`Simulator` itself.  Every entry is a plain tuple that starts
``(time, seq)``: ``seq`` is unique, so ``heapq`` orders entries by comparing
a float and an int in C and never reaches what follows them, nor calls back
into Python.  What follows is either a handle — ``(time, seq, event)``, from
``call_later``/``call_at`` — or the callback itself — ``(time, seq, fn,
args)``, from :meth:`Simulator.post_at`, for callers that would throw the
handle away.  Scheduling is a single ``heappush``, and one loop in
:meth:`Simulator.run` pops and fires both kinds for every way of advancing
the clock (``run()``, ``run(until=)``, ``run(max_events=)``, ``step()``).
A pure-Python timing wheel was tried beside it and lost at every queue
depth — see "Why a plain heap" in docs/PERFORMANCE.md.

Cancelled events stay in the heap as tombstones (removing from the middle
of a heap is O(n)); the simulator keeps O(1) tombstone counters and
reclaims dead entries lazily — at the head while popping, wholesale once
they are half the heap — so timer-heavy protocols (NAK timers, heartbeats
— armed by the thousand and mostly cancelled) don't drag every subsequent
push/pop through dead weight.

Hot-path design: :class:`Event` is a ``__slots__`` flyweight that serves as
its own :class:`Timer` handle (the two names alias one class).  It is never
reused: a caller that kept the handle reads its ``fired``, ``cancelled`` and
``time`` for as long as it likes, and one nobody kept falls to the allocator
when its heap entry is popped.
"""

from __future__ import annotations

import itertools
import random
import weakref
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.obs import MetricsRegistry

#: Heap compaction triggers when at least this many tombstones have
#: accumulated *and* they make up at least half the heap.
COMPACT_MIN_TOMBSTONES = 64


class Event:
    """A scheduled callback and its own timer handle.

    The heap orders its ``(time, seq, event)`` entry, not the event: the
    handle carries ``time`` for its holder to read and no ``seq``.

    Earlier kernels paired a dataclass event with a separate ``Timer``
    handle object; at hundreds of thousands of events per second the extra
    allocation and indirection were a measurable slice of the hot path, so
    the two are now one ``__slots__`` object (``Timer`` aliases this class).
    ``_simref`` is a weak reference shared by every event of a simulator —
    a strong reference would cycle sim→heap→event→sim, and a finished
    run's heap should die by refcounting, not wait for the cyclic GC.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_simref")

    time: float
    fn: Callable[..., None]
    args: tuple
    cancelled: bool
    fired: bool
    _simref: "weakref.ref[Simulator]"

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple,
        simref: "weakref.ref[Simulator]",
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._simref = simref

    @property
    def active(self) -> bool:
        """True while the timer is pending: not cancelled and not yet fired."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent; a no-op once fired."""
        if self.cancelled or self.fired:
            return
        sim = self._simref()
        if sim is None:
            # Simulator already collected; nothing left to account against.
            self.cancelled = True
            return
        sim._cancel(self)


#: Public alias: the scheduled event doubles as its own cancellation handle.
Timer = Event


class Simulator:
    """Deterministic discrete-event loop with virtual time.

    Example::

        sim = Simulator(seed=7)
        sim.call_later(1.5, print, "hello at t=1.5")
        sim.run()

    ``tombstones`` counts cancelled events still occupying the heap,
    ``compactions`` how many times the heap was rebuilt to shed them, and
    ``tombstones_shed`` how many were physically reclaimed so far (popped
    at the head or compacted away).

    ``__slots__`` because ``now``/``_events_executed``/``_stopped`` are
    written or read once per event on the hot path; ``_clock_domains`` is
    an opaque per-simulator cache slot owned by :mod:`repro.ordering.dense`.
    """

    __slots__ = (
        "seed",
        "rng",
        "now",
        "tombstones",
        "compactions",
        "tombstones_shed",
        "_queue",
        "_seq",
        "_events_executed",
        "_stopped",
        "_selfref",
        "_clock_domains",
        "metrics",
        "__weakref__",
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self.tombstones = 0
        self.compactions = 0
        self.tombstones_shed = 0
        #: min-heap of (time, seq, event) and (time, seq, fn, args) entries,
        #: tombstones included
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._events_executed = 0
        self._stopped = False
        self._selfref: "weakref.ref[Simulator]" = weakref.ref(self)
        self.metrics = MetricsRegistry("sim")
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.metrics
        m.gauge_fn("kernel.events_executed", lambda: self._events_executed)
        m.gauge_fn("kernel.pending", lambda: self.pending)
        m.gauge_fn("kernel.queue_depth", lambda: self.queue_depth)
        m.gauge_fn("kernel.tombstones", lambda: self.tombstones)
        m.gauge_fn(
            "kernel.tombstone_ratio",
            lambda: self.tombstones / self.queue_depth if self.queue_depth else 0.0,
        )
        m.gauge_fn("kernel.compactions", lambda: self.compactions)
        m.gauge_fn("kernel.tombstones_shed", lambda: self.tombstones_shed)
        m.gauge_fn("kernel.virtual_time", lambda: self.now)

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        This is the hot scheduling path; it inlines :meth:`call_at` (a
        non-negative delay can never land in the past, so the past-check is
        subsumed by the delay check).
        """
        if not delay >= 0:  # negative, or NaN (which would poison the heap order)
            raise ValueError(f"negative or NaN delay: {delay}")
        time = self.now + delay
        event = Event(time, fn, args, self._selfref)
        heappush(self._queue, (time, next(self._seq), event))
        return event

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not time >= self.now:  # in the past, or NaN (as in call_later)
            raise ValueError(f"cannot schedule in the past (or at NaN): {time} < {self.now}")
        event = Event(time, fn, args, self._selfref)
        heappush(self._queue, (time, next(self._seq), event))
        return event

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`call_at` without the handle, for a caller that would drop it.

        Same check, same ``seq`` counter and so the same place in the
        execution order; what is scheduled this way cannot be cancelled.
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule in the past (or at NaN): {time} < {self.now}")
        heappush(self._queue, (time, next(self._seq), fn, args))

    def _cancel(self, event: Event) -> None:
        """Tombstone ``event``.  Caller guarantees it is live (not fired)."""
        event.cancelled = True
        self.tombstones += 1
        if (self.tombstones >= COMPACT_MIN_TOMBSTONES
                and self.tombstones * 2 >= len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify (amortised O(1) per cancellation).

        Compaction is *in place* (slice-assign, not rebind): :meth:`run`
        holds ``_queue`` in a local, and a callback that mass-cancels timers
        mid-run must not strand it on a stale list.
        """
        queue = self._queue
        kept = [e for e in queue if len(e) == 4 or not e[2].cancelled]
        self.tombstones_shed += len(queue) - len(kept)
        heapify(kept)
        queue[:] = kept
        self.tombstones = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` passes, or the event
        budget is exhausted.  Returns the final simulation time.

        ``until`` is inclusive: an event at exactly ``until`` executes.

        This is the kernel's only popping loop: both kinds of entry are
        popped and fired in one frame with the heap held in a local (at >1M
        events/sec a method frame per event is a first-order cost).
        """
        if until != until:  # NaN: `time > nan` is never true, so nothing would stop the run
            raise ValueError("cannot run until NaN")
        self._stopped = False
        horizon = inf if until is None else until
        budget = max_events
        queue = self._queue
        pop = heappop
        while queue and not self._stopped:
            entry = queue[0]
            handle_free = len(entry) == 4
            if not handle_free:
                event = entry[2]
                if event.cancelled:
                    pop(queue)
                    self.tombstones -= 1
                    self.tombstones_shed += 1
                    continue
            time = entry[0]
            if time > horizon:
                break
            if budget is not None:
                if budget <= 0:
                    break
                budget -= 1
            pop(queue)
            self.now = time
            self._events_executed += 1
            if handle_free:
                entry[2](*entry[3])
            else:
                event.fired = True
                event.fn(*event.args)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Halt :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def events_executed(self) -> int:
        """Total events executed so far (for cost accounting in benchmarks)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live events still queued, O(1).

        Cancelled tombstones are *excluded*: they occupy heap slots until
        popped or compacted but will never execute.  Derived rather than
        counted, so pushes and pops stay counter-free.  See
        :attr:`queue_depth` for the raw heap size including tombstones.
        """
        return len(self._queue) - self.tombstones

    @property
    def queue_depth(self) -> int:
        """Raw heap size, including cancelled tombstones awaiting reclaim."""
        return len(self._queue)
