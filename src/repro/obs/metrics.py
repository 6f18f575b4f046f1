"""Metric primitives: counters, gauges, histograms, and the registry.

The simulation is deterministic and single-threaded, so the instruments are
deliberately minimal — plain Python attributes, no locks, no background
threads.  Two design rules keep the hot paths hot:

1. **Observation is cheap.**  ``Counter.inc`` is one attribute add;
   ``Histogram.observe`` is one bisect over a short tuple of bucket bounds.
2. **Derivation is lazy.**  Anything that can be computed from state the
   subsystem already maintains (queue depths, peak buffers, totals) is
   registered as a *callback gauge* and evaluated only when a snapshot is
   taken, so steady-state simulation pays nothing for it.

Every :class:`MetricsRegistry` announces itself to any active capture sinks
(see :func:`repro.obs.export.capture`), which is how the experiment runner
collects metrics from simulators it never sees constructed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Active capture sinks; ``MetricsRegistry.__init__`` appends the new registry
#: to every sink.  Managed by :func:`repro.obs.export.capture`.
_capture_sinks: List[List["MetricsRegistry"]] = []

#: Default bucket bounds for time-like quantities (virtual time units).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


def _series_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical series id: ``name`` or ``name{k=v,...}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value: either set explicitly or read from a callback."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: Dict[str, str],
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.labels = labels
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def bind(self, fn: Callable[[], float]) -> None:
        """Replace the gauge's source with a callback (lazy evaluation)."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """Fixed-bucket distribution summary.

    ``bounds`` are the inclusive upper edges of each bucket; observations
    above the last bound land in the overflow bucket.  Count, sum, min, and
    max are tracked exactly regardless of bucketing.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, labels: Dict[str, str],
                 bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        buckets: Dict[str, int] = {}
        for bound, n in zip(self.bounds, self.bucket_counts):
            buckets[f"<={bound:g}"] = n
        buckets["+inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Holds every instrument of one subsystem instance (usually one
    :class:`~repro.sim.kernel.Simulator` and everything built on it).

    Instruments are memoized by ``(name, labels)``: asking twice returns the
    same object, and re-registering a callback gauge rebinds it, so layered
    components can wire themselves up without coordination.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        for sink in _capture_sinks:
            sink.append(self)

    # -- instrument factories (memoized) -------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = _series_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(name, labels)
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _series_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge(name, labels)
        return found

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: str) -> Gauge:
        gauge = self.gauge(name, **labels)
        gauge.bind(fn)
        return gauge

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
                  **labels: str) -> Histogram:
        key = _series_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(name, labels, bounds)
        return found

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Evaluate every instrument into a JSON-serialisable dict."""
        return {
            "registry": self.name,
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.snapshot() for k, h in sorted(self._histograms.items())},
        }
