"""Tests for the real-time oven scenario (Section 4.6)."""

import pytest

from repro.apps.oven import default_trajectory, run_oven


def test_both_designs_track_the_oven_roughly():
    for design in ("catocs", "state"):
        result = run_oven(design=design, drop_prob=0.0)
        assert result.mean_abs_error < 3.0
        assert result.mean_staleness < 20.0


def test_state_design_no_worse_under_loss():
    catocs = run_oven(design="catocs", drop_prob=0.08)
    state = run_oven(design="state", drop_prob=0.08)
    assert state.mean_staleness <= catocs.mean_staleness
    assert state.max_staleness <= catocs.max_staleness


def test_catocs_head_of_line_blocking_shows_in_max_staleness():
    lossless = run_oven(design="catocs", drop_prob=0.0)
    lossy = run_oven(design="catocs", drop_prob=0.10)
    assert lossy.max_staleness > lossless.max_staleness


def test_state_design_drops_stale_applies_fresh():
    result = run_oven(design="state", drop_prob=0.10)
    # some readings lost outright (never applied), none delayed
    assert result.readings_applied <= result.readings_sent


def test_view_change_stall_only_in_catocs_design():
    catocs = run_oven(design="catocs", crash_member_at=800.0)
    state = run_oven(design="state", crash_member_at=800.0)
    assert catocs.view_change_stall > 0
    assert state.view_change_stall == 0


def test_smoothing_tames_erroneous_readings():
    """Section 4.6: interpolation/averaging accommodates 'replicated sensors
    and erroneous readings' — with outliers injected, the smoothed estimate
    beats the raw latest-value register."""
    raw = run_oven(design="state", sensors=2, smoothing=False,
                   outlier_prob=0.15, drop_prob=0.05)
    smoothed = run_oven(design="state", sensors=2, smoothing=True,
                        outlier_prob=0.15, drop_prob=0.05)
    assert smoothed.mean_abs_error < raw.mean_abs_error


def test_replicated_sensors_reduce_staleness():
    one = run_oven(design="state", sensors=1, drop_prob=0.1)
    three = run_oven(design="state", sensors=3, drop_prob=0.1)
    assert three.mean_staleness < one.mean_staleness


def test_smoothing_without_outliers_still_reasonable():
    result = run_oven(design="state", sensors=2, smoothing=True, drop_prob=0.0)
    assert result.mean_abs_error < 4.0


def test_unknown_design_rejected():
    with pytest.raises(ValueError):
        run_oven(design="quantum")


def test_trajectory_is_continuous_and_bounded():
    values = [default_trajectory(t) for t in range(0, 2000, 10)]
    assert all(0 < v < 300 for v in values)


def test_a_probe_before_the_first_reading_is_infinitely_wrong():
    from repro.apps.oven import OvenProbe

    assert OvenProbe(time=0.0, true_temp=20.0, monitor_temp=None,
                     staleness=0.0).abs_error == float("inf")
    assert OvenProbe(time=0.0, true_temp=20.0, monitor_temp=23.5,
                     staleness=0.0).abs_error == 3.5
