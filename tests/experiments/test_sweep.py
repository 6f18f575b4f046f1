"""Seed-sweep campaigns: range parsing, the campaign counts, and the
pinned metrics digest."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.experiments import run_all, sweep

PINS = Path(__file__).parent


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = run_all.main(argv)
    return status, out.getvalue()


# -- range parsing -----------------------------------------------------------------


def test_parse_seed_range_accepts_both_spellings():
    assert sweep.parse_seed_range("seeds=0..31") == (0, 31)
    assert sweep.parse_seed_range("3..3") == (3, 3)
    assert sweep.parse_seed_range("seeds=-2..4") == (-2, 4)


@pytest.mark.parametrize("bad", ["", "seeds=", "5", "a..b", "seeds=1..x", "1-4"])
def test_parse_seed_range_rejects_malformed_specs(bad):
    with pytest.raises(ValueError, match="seeds=A..B"):
        sweep.parse_seed_range(bad)


def test_parse_seed_range_rejects_empty_range():
    with pytest.raises(ValueError, match="empty"):
        sweep.parse_seed_range("seeds=7..3")


def test_wilson_interval_brackets_the_rate():
    lo, hi = sweep.wilson_interval(3, 10)
    assert 0.0 <= lo <= 0.3 <= hi <= 1.0
    assert sweep.wilson_interval(0, 0) == (0.0, 0.0)
    # extremes must not collapse to zero width (the reason Wilson is used)
    lo0, hi0 = sweep.wilson_interval(0, 20)
    assert lo0 == pytest.approx(0.0) and hi0 > 0.0


def test_campaign_counts_match_direct_probe_calls(tmp_path):
    metrics = tmp_path / "m.json"
    assert sweep.run_sweep(4, 5, metrics_out=str(metrics)) == 0
    probes = json.loads(metrics.read_text())["probes"]
    for name, _, probe in sweep.PROBES:
        for discipline in sweep.SWEEP_DISCIPLINES:
            expected = sum(bool(probe(seed, discipline)) for seed in (4, 5))
            assert probes[name][discipline]["runs"] == 2
            assert probes[name][discipline]["anomalies"] == expected


def test_sweep_metrics_match_the_pinned_digest(tmp_path):
    """``--sweep seeds=0..7 --metrics-out`` writes the pinned bytes; a
    change that moves a campaign count on purpose updates the pin."""
    metrics = tmp_path / "sweep.json"
    status, out = _run_main(
        ["--sweep", "seeds=0..7", "--metrics-out", str(metrics)])
    assert status == 0
    assert f"sweep metrics written to {metrics}" in out
    payload = json.loads(metrics.read_text())
    assert payload["schema"] == sweep.SCHEMA
    assert payload["seeds"] == {"lo": 0, "hi": 7, "count": 8}
    assert (hashlib.sha256(metrics.read_bytes()).hexdigest()
            == (PINS / "sweep_metrics.sha256").read_text().strip())


def test_unwritable_metrics_path_is_reported(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "m.json"
    status = sweep.run_sweep(0, 0, metrics_out=str(missing))
    assert status == 2
    assert "cannot write metrics" in capsys.readouterr().err


# -- CLI guard rails ---------------------------------------------------------------


def test_cli_rejects_experiment_names_with_sweep(capsys):
    status, _ = _run_main(["E01", "--sweep", "seeds=0..3"])
    assert status == 2
    assert "not accepted" in capsys.readouterr().err


def test_cli_rejects_discipline_with_sweep(capsys):
    status, _ = _run_main(
        ["--sweep", "seeds=0..3", "--discipline", "total-seq"])
    assert status == 2
    assert "--discipline" in capsys.readouterr().err


def test_cli_rejects_malformed_sweep_spec(capsys):
    status, _ = _run_main(["--sweep", "banana"])
    assert status == 2
    assert "seeds=A..B" in capsys.readouterr().err
