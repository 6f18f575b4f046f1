import json

from perfbench import SCHEMA, catalogue, compare
from perfbench.compare import BETTER, UNRESOLVED, WITHIN, WORSE, judge

CAL = catalogue.Metric("cal_us_per_delivery", "us", "lower", 0.10)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert judge(CAL, steady, [v * 1.2 for v in steady], 0.01).verdict == WORSE
    assert judge(CAL, steady, [v * 1.05 for v in steady], 0.01).verdict == WITHIN
    assert judge(CAL, steady, [v * 0.9 for v in steady], 0.01).verdict == BETTER
    # Not worse, but the noise is wider than the bound: cannot say "unchanged".
    assert judge(CAL, steady, [v * 1.05 for v in steady], 0.3).verdict == UNRESOLVED
    # ... unless every run of B beats every run of A.
    assert judge(CAL, steady, [v * 0.5 for v in steady], 0.3).verdict == BETTER
    # Worse by more than the bound is worse whatever the spread.
    assert judge(CAL, steady, [v * 1.5 for v in steady], 0.3).verdict == WORSE


def test_one_run_a_side_is_never_better_by_separation():
    # Noise wider than the bound: with one run each, "every run of B beats
    # every run of A" is true of any dip at all.
    assert judge(CAL, [100.0], [97.0], 0.3).verdict == UNRESOLVED
    assert judge(CAL, [100.0, 101.0], [97.0], 0.3).verdict == UNRESOLVED
    assert judge(CAL, [100.0, 101.0], [97.0, 96.0], 0.3).verdict == BETTER


def test_no_spread_estimate_is_unresolved_unless_worse():
    assert judge(CAL, [100.0], [97.0], None).verdict == UNRESOLVED
    assert judge(CAL, [100.0], [103.0], None).verdict == UNRESOLVED
    assert judge(CAL, [100.0], [150.0], None).verdict == WORSE


def test_higher_is_better_metrics_flip_the_sign():
    rate = catalogue.Metric("rate", "1/s", "higher", 0.1)
    assert judge(rate, [100.0], [80.0], 0.0).verdict == WORSE
    assert judge(rate, [100.0], [120.0], 0.0).verdict == BETTER


def document(cal, failed_share=0.0):
    workload = catalogue.SIM_CLEAN
    end_to_end = {m.name: 1.0 for m in catalogue.END_TO_END}
    end_to_end["cal_us_per_delivery"] = cal
    return {
        "schema": SCHEMA, "comparable": True,
        "workloads": {workload: {
            "end_to_end": end_to_end, "failed_share": failed_share,
            "setup_samples": [{"cal_s": 1.0}, {"cal_s": 1.0}],
            "measure": {"host": {"iqr_share": 0.02}},
        }},
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_exits_nonzero_on_worse_and_on_risen_failures(tmp_path, capsys):
    base = write(tmp_path, "a.json", document(100.0))
    assert compare.compare_files(base, write(tmp_path, "same.json", document(101.0))) == 0
    assert compare.compare_files(base, write(tmp_path, "slow.json", document(150.0))) == 1
    assert compare.compare_files(
        base, write(tmp_path, "broken.json", document(100.0, failed_share=0.01))) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "ROSE" in out and "A as the base" in out


def test_compare_skips_stand_in_cells(tmp_path):
    rows = compare.compare([document(100.0)], [document(100.0)])
    assert {r.metric for r in rows} == {
        m for m, where in catalogue.NATIVE.items() if catalogue.SIM_CLEAN in where}


def test_single_sample_metrics_need_two_runs_a_side_for_a_spread():
    rows = {r.metric: r for r in compare.compare([document(100.0)], [document(97.0)])}
    # One ru_maxrss reading per run: a dip cannot be told from noise.
    assert rows["peak_rss_mb"].spread is None
    assert rows["peak_rss_mb"].verdict == UNRESOLVED
    # Exact in-sim, so no spread to estimate; the slices' own spread otherwise.
    assert rows["wire_msgs_per_delivery"].spread == 0.0
    assert rows["cal_us_per_delivery"].spread == 0.02
    rows = {r.metric: r for r in compare.compare([document(100.0), document(101.0)],
                                                 [document(97.0), document(98.0)])}
    assert rows["peak_rss_mb"].spread == 0.0
    assert rows["peak_rss_mb"].verdict == WITHIN


def test_smoke_results_are_refused(tmp_path):
    doc = document(100.0)
    doc["comparable"] = False
    path = write(tmp_path, "smoke.json", doc)
    try:
        compare.load_side(path)
    except SystemExit as exc:
        assert "not comparable" in str(exc)
    else:
        raise AssertionError("a smoke result was accepted")
