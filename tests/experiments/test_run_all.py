"""The experiment runner: per-experiment reporting and argument handling.

A failing or crashing experiment is reported per-experiment — name,
verdict, unmet checks or traceback — and poisons the exit status without
hiding the rest of the suite.  Fake registries are swapped in by
monkeypatching ``run_all.registry``: every experiment runs in this process.
"""

import gc
import io
import json
import weakref
from contextlib import redirect_stdout

import pytest

from repro.experiments import run_all
from repro.experiments.harness import ExperimentResult, Table
from repro.sim import Simulator


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = run_all.main(argv)
    return status, out.getvalue()


def _fake_pass():
    table = Table("t", ["x"])
    table.add_row(1)
    return ExperimentResult("E01", "fake pass", [table], checks={"shape": True})


def _fake_fail():
    return ExperimentResult(
        "E02", "fake fail", [],
        checks={"monotone latency": False, "linear growth": True},
    )


def _fake_crash():
    raise RuntimeError("simulated experiment crash")


FAKE_REGISTRY = {"E01": _fake_pass, "E02": _fake_fail, "E03": _fake_crash}


@pytest.fixture
def fake_registry(monkeypatch):
    monkeypatch.setattr(run_all, "registry", lambda: dict(FAKE_REGISTRY))


# -- failure and crash reporting ---------------------------------------------------


def test_failures_and_crashes_reported_per_experiment(fake_registry):
    status, out = _run_main(["E01", "E02", "E03"])
    assert status == 1
    # the failing experiment names its unmet checks
    assert "  E02  FAIL  (unmet: monotone latency)" in out
    # the crashed experiment prints its traceback in the report body...
    assert "== E03: CRASHED ==" in out
    assert "RuntimeError: simulated experiment crash" in out
    # ...and a one-line cause in the verdict table
    assert "  E03  CRASH  (RuntimeError: simulated experiment crash)" in out
    # the healthy experiment still ran and passed
    assert "  E01  pass" in out
    assert "FAILED: E02; CRASHED: E03" in out


def test_all_passing_suite_exits_zero(fake_registry):
    status, out = _run_main(["E01"])
    assert status == 0
    assert "ran 1 experiments; ALL PASSED" in out


def test_crash_skips_metrics_but_not_others(fake_registry, tmp_path):
    metrics = tmp_path / "m.json"
    status, out = _run_main(
        ["E01", "E03", "--metrics-out", str(metrics)])
    assert status == 1
    dumps = json.loads(metrics.read_text())["experiments"]
    assert "E01" in dumps and "E03" not in dumps


@pytest.mark.parametrize("where", ["a-directory", "a-missing-directory"])
def test_an_unwritable_metrics_path_exits_2(fake_registry, tmp_path, capsys, where):
    path = tmp_path if where == "a-directory" else tmp_path / "missing" / "m.json"
    status, out = _run_main(["E01", "--metrics-out", str(path)])
    assert status == 2
    assert "== E01: fake pass ==" in out  # the run itself completed
    assert f"cannot write metrics to {path}" in capsys.readouterr().err


def test_report_follows_request_order(fake_registry):
    _, out = _run_main(["E02", "E01"])
    assert out.index("== E02") < out.index("== E01")


def test_duplicate_names_run_once(fake_registry, tmp_path):
    metrics = tmp_path / "m.json"
    status, out = _run_main(["E01", "e01", "--metrics-out", str(metrics)])
    assert status == 0
    assert out.count("== E01: fake pass ==") == 1
    assert "metrics for 1 experiments" in out
    assert "ran 1 experiments; ALL PASSED" in out


def test_list_reads_the_registry(fake_registry):
    status, out = _run_main(["--list"])
    assert status == 0
    assert out.split() == ["E01", "E02", "E03"]


# -- what a run keeps alive ---------------------------------------------------------


def _probe_released():
    """Run one simulator, drop it, and pass only if a full collection
    reclaims it: nothing the runner holds may keep it alive."""
    sim = Simulator(seed=1)
    sim.call_later(1.0, lambda: None)
    sim.run()
    ref = weakref.ref(sim)
    del sim
    gc.collect()
    return ExperimentResult("EX", "probe", [], checks={"released": ref() is None})


def test_a_run_without_metrics_keeps_no_simulation(monkeypatch):
    """A captured registry's gauges close over their simulator, so only a
    run that asked for metrics may hold one past the experiment's own use;
    the one that did still gets that simulator's series."""
    monkeypatch.setattr(run_all, "registry", lambda: {"EX": _probe_released})
    assert run_all.run_one("EX", False)["verdict"] == run_all.PASS
    metrics = run_all.run_one("EX", True)["metrics"]
    assert metrics["registries"] == 1
    assert metrics["kernel"]["gauges"]["kernel.virtual_time"]["max"] == 1.0
    assert "kernel.events_executed" in metrics["kernel"]["gauges"]


def test_capturing_metrics_does_not_change_the_report():
    assert run_all.run_one("E02", False)["rendered"] == run_all.run_one("E02", True)["rendered"]


# -- argument handling -------------------------------------------------------------


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--jobs=2"]])
def test_jobs_option_is_gone(flag, capsys):
    """Experiments run in one process: ``--jobs`` must be rejected, not
    accepted and ignored."""
    status, _ = _run_main(flag)
    assert status == 2
    assert "unknown option: --jobs" in capsys.readouterr().err


def test_prewarm_imports_every_registered_experiment():
    import sys

    run_all.prewarm_registry()
    modules = {fn.__module__ for fn in run_all.registry().values()}
    assert len(run_all.registry()) == 19
    assert all(name in sys.modules for name in modules)
