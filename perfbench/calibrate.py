"""The noise method: calibration spin, calibrated times, robust summaries.

Host speed on the shared 2-vCPU box swings by a factor of two between
back-to-back runs of identical code (CPU time tracks wall time, so it is the
host, not scheduling), and it changes regime every few seconds.  Every
host-time metric is therefore measured in *slices*, each bracketed by a
fixed pure-Python spin and, between the brackets, sampled every 50 ms by a
twentieth-size spin run from a timer signal; the slice's time is rescaled by
how slow the spins ran, and the reported value is the median over slices.
The four constants below and the body of :func:`_spin_loop` define the unit
of every calibrated number the benchmark has ever printed: none may change.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of a bracket spin.  Frozen, like the loop body.
SPIN_ITERATIONS = 120_000
#: What one spin takes on a quiet host; calibrated seconds are seconds at
#: this host speed.  Frozen.
SPIN_NOMINAL_S = 0.040


#: Iterations of an interior sample, and what one takes, run from the timer
#: signal in the middle of a workload, on a host where the spin takes
#: ``SPIN_NOMINAL_S``.  Frozen.
MINI_ITERATIONS = 6_000
MINI_NOMINAL_S = 0.00176
#: Seconds between interior samples (about 4% of the region goes to them).
SAMPLE_INTERVAL_S = 0.05


def _spin_loop(iterations: int) -> float:
    """The frozen calibration loop; returns its wall-clock seconds.

    heappush/heappop/dict-update is the instruction mix of the simulator's
    own hot path (event heap, per-sender tables), so the spin slows down with
    the host the way the workloads do.
    """
    heap: List[int] = []
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(iterations):
        heappush(heap, (i * 7919) & 0xFFFF)
        if i & 1:
            heappop(heap)
        table[i & 1023] = i
    return time.perf_counter() - start


def spin() -> float:
    """One bracket spin (about 40 ms): host speed at a slice's edge."""
    return _spin_loop(SPIN_ITERATIONS)


@contextmanager
def sampling() -> Iterator[List[float]]:
    """Sample host speed inside the ``with`` block: a timer signal runs a
    :data:`MINI_ITERATIONS` spin every :data:`SAMPLE_INTERVAL_S` in the main
    thread, between two bytecodes of whatever is being timed.  Yields the
    list the samples' seconds are appended to.

    Two spins 40 ms long at the edges say little about the seven seconds of
    an E07 between them: on this host the suite's calibrated time spread
    16% (IQR/median) on brackets alone and 3% with the interior sampled.
    """
    inside: List[float] = []
    busy = False

    def on_timer(signum: int, frame: Any) -> None:
        nonlocal busy
        if not busy:  # a stalled host can deliver the next tick mid-sample
            busy = True
            inside.append(_spin_loop(MINI_ITERATIONS))
            busy = False

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield inside
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def calibrated(raw_s: float, spin_before_s: float, spin_after_s: float,
               inside_s: Sequence[float] = ()) -> float:
    """Rescale ``raw_s`` to the nominal host speed.

    Each spin is one reading of host speed (nominal time / time taken); the
    region's own time, the interior samples taken out, is multiplied by
    their mean.  With no interior samples this is the bracket alone.
    """
    speeds = [SPIN_NOMINAL_S / spin_before_s, SPIN_NOMINAL_S / spin_after_s]
    speeds += [MINI_NOMINAL_S / s for s in inside_s]
    return (raw_s - sum(inside_s)) * statistics.fmean(speeds)


def bracketed(fn: Callable[[], T]) -> Tuple[T, Dict[str, Any]]:
    """Time ``fn()`` between two spins, sampling host speed while it runs.

    Returns ``fn``'s result and the sample: raw seconds, every spin's time
    and the calibrated seconds (kept together so spread can be recomputed
    from the ``--out`` file).
    """
    before = spin()
    with sampling() as inside:
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
    after = spin()
    return result, sample(raw, before, after, inside)


def sample(raw_s: float, spin_before_s: float, spin_after_s: float,
           inside_s: Sequence[float] = ()) -> Dict[str, Any]:
    return {
        "raw_s": raw_s,
        "spin_before_s": spin_before_s,
        "spin_after_s": spin_after_s,
        "inside_s": list(inside_s),
        "cal_s": calibrated(raw_s, spin_before_s, spin_after_s, inside_s),
    }


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's spread statistic); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least ten samples lie
    beyond the percentile: a tail read off fewer is one outlier's value.
    """
    n = len(values)
    if not 0 < p < 100:
        raise ValueError(f"percentile out of range: {p}")
    if n * (100 - p) / 100.0 < 10:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has fewer than ten samples beyond it"
        )
    ordered = sorted(values)
    return ordered[min(n - 1, int(n * p / 100.0))]


def supported_percentile(n: int, want: float = 99.0) -> float:
    """The highest of (``want``, 98, 95, 90, 75, 50) that ``n`` samples
    support under :func:`percentile`'s ten-beyond rule."""
    for p in (want, 98.0, 95.0, 90.0, 75.0, 50.0):
        if p <= want and n * (100 - p) / 100.0 >= 10:
            return p
    raise TooFewSamples(f"{n} samples support no percentile")
