"""The performance ledger: workloads, record numbering, regression gating."""

import json

import pytest

from repro.bench import ledger, workloads
from repro.bench.cli import main as bench_main


def _record(metrics, **extra):
    return {
        "schema": ledger.SCHEMA,
        "created_at": "2026-01-01T00:00:00Z",
        "python": "3.x",
        "platform": "test",
        "cpu_count": 1,
        "metrics": metrics,
        **extra,
    }


BASE_METRICS = {
    "kernel_events_per_sec": 2_000_000.0,  # above the 1M floor gate
    "network_msgs_per_sec": 50_000.0,
    "multicast_us_per_delivery": {"raw": 10.0, "causal": 30.0},
    "clock_compare_ns": {"dict": 20_000.0, "dense": 9_000.0},
    "clock_stamp_ns": {"dict": 1000.0, "dense": 800.0},
    "suite": {"sequential_s": 30.0, "parallel_s": 12.0, "jobs": 4,
              "speedup": 2.5},
}


# -- workloads ---------------------------------------------------------------------


def test_workloads_produce_positive_numbers():
    assert workloads.kernel_events_per_sec(events=2000, repeats=1) > 0
    assert workloads.network_msgs_per_sec(msgs=500, repeats=1) > 0


def test_multicast_workload_covers_every_discipline():
    out = workloads.multicast_us_per_delivery(members=3, msgs=9, repeats=1)
    assert set(out) == {"raw", "fifo", "causal", "total-seq", "total-agreed",
                       "hybrid-causal", "batched-causal"}
    assert all(v > 0 for v in out.values())


def test_clock_workloads_time_both_representations():
    compare = workloads.clock_compare_ns(size=8, iterations=50, repeats=1)
    stamp = workloads.clock_stamp_ns(size=8, iterations=50, repeats=1)
    assert set(compare) == set(stamp) == {"dict", "dense"}
    assert all(v > 0 for v in list(compare.values()) + list(stamp.values()))


def test_analysis_workload_stays_inside_budget():
    """The static-analysis gate runs on every push; keep the cold pass
    under ten seconds so it never becomes the slow step of the CI
    pipeline — and the warm pass must actually replay the cache."""
    out = workloads.analysis_cold_warm_s(repeats=1)
    assert set(out) == {"cold_s", "warm_s", "warm_speedup"}
    assert 0 < out["cold_s"] < 10.0, f"cold analysis took {out['cold_s']:.1f}s"
    assert 0 < out["warm_s"] < out["cold_s"]
    assert out["warm_speedup"] > 5.0  # the ledger floor, enforced at source


# -- ledger read/write/numbering ---------------------------------------------------


def test_records_number_sequentially(tmp_path):
    directory = str(tmp_path)
    assert ledger.next_index(directory) == 1
    first = ledger.write_record(_record(BASE_METRICS), directory)
    second = ledger.write_record(_record(BASE_METRICS), directory)
    assert first.endswith("BENCH_1.json")
    assert second.endswith("BENCH_2.json")
    assert ledger.next_index(directory) == 3
    assert ledger.latest_records(directory) == [first, second]
    assert ledger.load_record(second)["index"] == 2


def test_numbering_survives_gaps(tmp_path):
    (tmp_path / "BENCH_7.json").write_text(
        json.dumps(_record(BASE_METRICS, index=7)))
    assert ledger.next_index(str(tmp_path)) == 8


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError, match="expected schema"):
        ledger.load_record(str(path))


# -- comparison --------------------------------------------------------------------


def test_compare_flags_throughput_drop():
    worse = json.loads(json.dumps(BASE_METRICS))
    worse["kernel_events_per_sec"] = 1_200_000.0  # -40%, beyond 25% (floor ok)
    rows = ledger.compare_records(
        _record(BASE_METRICS), _record(worse), threshold=0.25)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["kernel_events_per_sec"]["regressed"]
    assert not by_metric["clock_compare_ns.dense"]["regressed"]


def test_compare_flags_latency_rise_but_not_improvement():
    changed = json.loads(json.dumps(BASE_METRICS))
    changed["clock_compare_ns"]["dense"] = 18_000.0  # 2x slower: regression
    changed["kernel_events_per_sec"] = 10_000_000.0  # 5x faster: fine
    rows = ledger.compare_records(
        _record(BASE_METRICS), _record(changed), threshold=0.25)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["clock_compare_ns.dense"]["regressed"]
    assert not by_metric["kernel_events_per_sec"]["regressed"]


def test_compare_threshold_is_respected():
    worse = json.loads(json.dumps(BASE_METRICS))
    worse["kernel_events_per_sec"] = 1_700_000.0  # -15%
    base = _record(BASE_METRICS)
    loose = ledger.compare_records(base, _record(worse), threshold=0.25)
    tight = ledger.compare_records(base, _record(worse), threshold=0.10)
    assert not any(row["regressed"] for row in loose)
    assert any(row["regressed"] for row in tight)


def test_compare_skips_metrics_missing_from_either_side():
    thin = {"kernel_events_per_sec": 2_000_000.0}
    rows = ledger.compare_records(_record(thin), _record(BASE_METRICS))
    # Relative gates need both sides; floor gates judge the candidate alone,
    # so suite.speedup still gets a row against its absolute bar.  The
    # kernel metric is gated both ways but appears exactly once (merged).
    assert [row["metric"] for row in rows] == \
        ["kernel_events_per_sec", "suite.speedup"]


# -- floor gates -------------------------------------------------------------------


def _speedup_record(speedup):
    metrics = json.loads(json.dumps(BASE_METRICS))
    metrics["suite"]["speedup"] = speedup
    return _record(metrics)


def test_floor_gate_fails_steady_sub_one_speedup():
    # The BENCH_1-4 failure mode: a 0.95 speedup that never moves between
    # records has zero relative change, but the floor still rejects it.
    rows = ledger.compare_records(_speedup_record(0.95), _speedup_record(0.95))
    floor_row = next(r for r in rows if r["metric"] == "suite.speedup")
    assert floor_row["regressed"]
    assert floor_row["change"] is None and floor_row["floor"] == 1.0


def test_floor_gate_requires_strictly_more_than_one():
    exactly_one = ledger.compare_records(
        _speedup_record(2.0), _speedup_record(1.0))
    above = ledger.compare_records(
        _speedup_record(0.9), _speedup_record(1.05))
    assert next(r for r in exactly_one
                if r["metric"] == "suite.speedup")["regressed"]
    assert not next(r for r in above
                    if r["metric"] == "suite.speedup")["regressed"]


def test_floor_gate_skips_candidates_without_the_metric():
    # Pre-engine records never measured a speedup; they must still diff.
    thin = {"kernel_events_per_sec": 100_000.0}
    rows = ledger.compare_records(_record(BASE_METRICS), _record(thin))
    assert all(row["metric"] != "suite.speedup" for row in rows)


def test_floor_gate_renders_missing_baseline_and_floor_column():
    thin = {"kernel_events_per_sec": 100_000.0}
    rows = ledger.compare_records(_record(thin), _speedup_record(0.9))
    rendered = ledger.render_comparison(rows)
    line = next(ln for ln in rendered.splitlines() if "suite.speedup" in ln)
    assert "-" in line and "> 1" in line and "REGRESSED" in line


def test_cli_compare_fails_on_floor_violation(tmp_path, capsys):
    _write_pair(tmp_path, _speedup_record(0.97)["metrics"])
    assert bench_main(["compare", "--out-dir", str(tmp_path)]) == 1
    assert "suite.speedup" in capsys.readouterr().out


def test_kernel_floor_merges_into_the_relative_row():
    # A steady 900k ev/s never moves relatively, but it is under the 1M
    # floor: exactly one row for the metric, carrying both verdicts.
    steady = json.loads(json.dumps(BASE_METRICS))
    steady["kernel_events_per_sec"] = 900_000.0
    rows = ledger.compare_records(_record(steady), _record(steady))
    kernel_rows = [r for r in rows if r["metric"] == "kernel_events_per_sec"]
    assert len(kernel_rows) == 1
    row = kernel_rows[0]
    assert row["floor"] == 1_000_000.0
    assert row["change"] == 0.0
    assert row["regressed"]
    rendered = ledger.render_comparison(rows)
    line = next(ln for ln in rendered.splitlines()
                if "kernel_events_per_sec" in ln)
    assert "REGRESSED" in line and "floor 1e+06" in line


def test_kernel_above_floor_is_not_flagged_by_the_floor():
    rows = ledger.compare_records(_record(BASE_METRICS), _record(BASE_METRICS))
    row = next(r for r in rows if r["metric"] == "kernel_events_per_sec")
    assert row["floor"] == 1_000_000.0 and not row["regressed"]


def _sweep_record(speedup):
    metrics = json.loads(json.dumps(BASE_METRICS))
    metrics["parallel_sweep"] = {
        "sequential_s": 20.0, "parallel_s": 18.0, "jobs": 2, "seeds": 16,
        "speedup": speedup,
    }
    return _record(metrics)


def test_parallel_sweep_floor_fails_sub_one_speedup():
    # The BENCH_5 regression shape: 0.925 at jobs=2, previously ungated.
    rows = ledger.compare_records(_sweep_record(0.925), _sweep_record(0.925))
    row = next(r for r in rows if r["metric"] == "parallel_sweep.speedup")
    assert row["regressed"] and row["floor"] == 1.0


def test_parallel_sweep_null_speedup_skips_the_floor():
    # A single-core host records timings but nulls the speedup; the gate
    # must skip the metric instead of crashing or flagging it.
    rows = ledger.compare_records(_sweep_record(1.4), _sweep_record(None))
    assert all(r["metric"] != "parallel_sweep.speedup" for r in rows)


def test_parallel_sweep_workload_skips_speedup_on_single_core(monkeypatch):
    import repro.experiments.engine as engine

    monkeypatch.setattr(engine, "effective_cpu_count", lambda: 1)
    monkeypatch.setattr(
        workloads, "_speedup_pair",
        lambda extra, jobs, repeats: {
            "sequential_s": 1.0, "parallel_s": 1.1, "jobs": jobs,
            "speedup": 0.909,
        })
    out = workloads.parallel_sweep(jobs=2, seeds=4, repeats=1)
    assert out["speedup"] is None
    assert "effective_cpu_count=1" in out["speedup_skipped"]
    assert out["sequential_s"] == 1.0 and out["parallel_s"] == 1.1


def test_parallel_sweep_workload_keeps_speedup_on_multicore(monkeypatch):
    import repro.experiments.engine as engine

    monkeypatch.setattr(engine, "effective_cpu_count", lambda: 4)
    monkeypatch.setattr(
        workloads, "_speedup_pair",
        lambda extra, jobs, repeats: {
            "sequential_s": 2.0, "parallel_s": 1.0, "jobs": jobs,
            "speedup": 2.0,
        })
    out = workloads.parallel_sweep(jobs=2, seeds=4, repeats=1)
    assert out["speedup"] == 2.0
    assert "speedup_skipped" not in out


# -- CLI ---------------------------------------------------------------------------


def _write_pair(tmp_path, candidate_metrics):
    ledger.write_record(_record(BASE_METRICS), str(tmp_path))
    ledger.write_record(_record(candidate_metrics), str(tmp_path))


def test_cli_compare_ok(tmp_path, capsys):
    _write_pair(tmp_path, BASE_METRICS)
    assert bench_main(["compare", "--out-dir", str(tmp_path)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_compare_fails_on_regression(tmp_path, capsys):
    worse = json.loads(json.dumps(BASE_METRICS))
    worse["suite"]["sequential_s"] = 90.0
    _write_pair(tmp_path, worse)
    assert bench_main(["compare", "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "suite.sequential_s" in out


def test_cli_compare_warn_only_exits_zero(tmp_path, capsys):
    worse = json.loads(json.dumps(BASE_METRICS))
    worse["suite"]["sequential_s"] = 90.0
    _write_pair(tmp_path, worse)
    assert bench_main(
        ["compare", "--out-dir", str(tmp_path), "--warn-only"]) == 0
    assert "WARNING" in capsys.readouterr().out


def test_cli_compare_with_no_records_is_non_blocking(tmp_path, capsys):
    assert bench_main(["compare", "--out-dir", str(tmp_path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_cli_compare_explicit_paths(tmp_path):
    base = ledger.write_record(_record(BASE_METRICS), str(tmp_path))
    worse = json.loads(json.dumps(BASE_METRICS))
    worse["network_msgs_per_sec"] = 1000.0
    cand = ledger.write_record(_record(worse), str(tmp_path))
    assert bench_main(
        ["compare", "--baseline", base, "--candidate", cand]) == 1
    assert bench_main(
        ["compare", "--baseline", base, "--candidate", base]) == 0


def test_cli_run_writes_next_record(tmp_path, capsys, monkeypatch):
    # Stub the timed workloads: this test is about record plumbing, not speed.
    monkeypatch.setattr(
        workloads, "kernel_events_per_sec", lambda repeats: 1.0)
    monkeypatch.setattr(
        workloads, "network_msgs_per_sec", lambda repeats: 2.0)
    monkeypatch.setattr(
        workloads, "multicast_us_per_delivery", lambda repeats: {"raw": 3.0})
    monkeypatch.setattr(
        workloads, "clock_compare_ns", lambda repeats: {"dict": 4.0, "dense": 2.0})
    monkeypatch.setattr(
        workloads, "clock_stamp_ns", lambda repeats: {"dict": 5.0, "dense": 3.0})
    status = bench_main(
        ["run", "--out-dir", str(tmp_path), "--skip-suite", "--repeats", "1"])
    assert status == 0
    assert "wrote" in capsys.readouterr().out
    record = ledger.load_record(str(tmp_path / "BENCH_1.json"))
    assert record["schema"] == ledger.SCHEMA
    assert record["metrics"]["kernel_events_per_sec"] == 1.0
    assert "suite" not in record["metrics"]
