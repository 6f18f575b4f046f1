import signal
import time

import pytest

from perfbench import calibrate
from perfbench.calibrate import (
    MINI_NOMINAL_S,
    SPIN_NOMINAL_S,
    TooFewSamples,
    calibrated,
    iqr_share,
    percentile,
    supported_percentile,
)


def test_calibrated_rescales_by_mean_speed():
    # A host running at half speed doubles both the slice and the spins.
    assert calibrated(2.0, 2 * SPIN_NOMINAL_S, 2 * SPIN_NOMINAL_S) == pytest.approx(1.0)
    assert calibrated(1.0, SPIN_NOMINAL_S, SPIN_NOMINAL_S) == pytest.approx(1.0)
    # Speed changing across the slice: each spin is one reading of speed
    # (1 and 1/3 here) and their mean is used.
    assert calibrated(3.0, SPIN_NOMINAL_S, 3 * SPIN_NOMINAL_S) == pytest.approx(2.0)


def test_interior_samples_are_taken_out_and_weigh_like_the_brackets():
    # Quiet at both edges, half speed at both interior samples: the region's
    # own time is the raw time less the samples, at a mean speed of 3/4.
    slow = 2 * MINI_NOMINAL_S
    assert calibrated(2.0 + 2 * slow, SPIN_NOMINAL_S, SPIN_NOMINAL_S,
                      [slow, slow]) == pytest.approx(1.5)


def test_sample_keeps_what_spread_is_recomputed_from():
    s = calibrate.sample(0.5, 0.05, 0.03, [0.002])
    assert s["raw_s"] == 0.5 and s["spin_before_s"] == 0.05 and s["spin_after_s"] == 0.03
    assert s["inside_s"] == [0.002]
    assert s["cal_s"] == calibrated(0.5, 0.05, 0.03, [0.002])
    assert calibrate.sample(0.5, 0.05, 0.03)["inside_s"] == []


def test_spin_constants_are_frozen():
    # Editing any of them rebases every calibrated number ever recorded.
    assert calibrate.SPIN_ITERATIONS == 120_000
    assert SPIN_NOMINAL_S == 0.040
    assert calibrate.MINI_ITERATIONS == 6_000
    assert MINI_NOMINAL_S == 0.00176


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return 7


def test_bracketed_samples_the_interior_and_leaves_no_timer_behind():
    before = signal.getsignal(signal.SIGALRM)
    result, s = calibrate.bracketed(lambda: _busy(3.5 * calibrate.SAMPLE_INTERVAL_S))
    assert result == 7
    assert s["raw_s"] > 0 and s["spin_before_s"] > 0 and s["spin_after_s"] > 0
    assert 2 <= len(s["inside_s"]) <= 4 and all(x > 0 for x in s["inside_s"])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_sampling_disarms_when_the_body_raises():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with calibrate.sampling():
            raise RuntimeError("boom")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_percentile_refuses_without_ten_samples_beyond():
    values = list(range(999))
    with pytest.raises(TooFewSamples):
        percentile(values, 99)  # 9.99 samples beyond
    assert percentile(list(range(1000)), 99) == 990
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 10


def test_supported_percentile_steps_down():
    assert supported_percentile(1000) == 99
    assert supported_percentile(999) == 98
    assert supported_percentile(500) == 98
    assert supported_percentile(60) == 75
    with pytest.raises(TooFewSamples):
        supported_percentile(19)


def test_iqr_share_matches_the_drivers_statistic():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.1, 9.9, 10.4, 10.0, 9.8, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert iqr_share([5.0]) == 0.0
