import json
import re

from perfbench import ROOT, catalogue

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue_written_out():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == catalogue.benchmark_json()


def test_catalogue_is_inside_the_drivers_limits():
    doc = catalogue.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_every_end_to_end_metric_says_where_it_is_native():
    assert set(catalogue.NATIVE) == {m.name for m in catalogue.END_TO_END}
    for workloads in catalogue.NATIVE.values():
        assert workloads and workloads <= set(catalogue.WORKLOAD_NAMES)


def test_the_issues_seventy_five_layer_metrics():
    assert len(catalogue.PER_LAYER) == 75
