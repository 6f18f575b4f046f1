import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, catalogue


def run_cli(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "-m", "perfbench", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", catalogue.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_driver_contract_on_smoke_sizes(workload, trace, tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli("run", "--workload", workload, "--seed", "4", "--seconds", "1",
                   "--trace", trace, "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = catalogue.PER_LAYER if trace == "1" else catalogue.END_TO_END
    assert list(last["metrics"]) == [m.name for m in declared]
    for metric in declared:
        cell = last["metrics"][metric.name]
        assert set(cell) == {"value", "unit"} and cell["unit"] == metric.unit
        if trace == "0":
            assert cell["value"] > 0, metric.name  # the driver divides by it
    doc = json.loads(out.read_text())
    assert doc["comparable"] is False and doc["schema"] == "perfbench/v1"
    assert {"git_commit", "python", "platform", "nproc"} <= set(doc["environment"])


def test_layers_a_workload_does_not_reach_report_zero_calls():
    proc = run_cli("run", "--workload", "udp-causal-loopback", "--seconds", "1",
                   "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["sim.kernel.calls_per_delivery"]["value"] == 0
    assert metrics["sim.network.calls_per_delivery"]["value"] == 0
    for layer in ("runtime.codec", "runtime.udp", "catocs.ordering", "ordering.dense"):
        assert metrics[f"{layer}.calls_per_delivery"]["value"] > 0
        assert metrics[f"{layer}.self_us_per_delivery"]["value"] > 0
    assert metrics["runtime.udp.decode_errors"]["value"] == 0
    for name in ("encode_us_per_dgram", "decode_us_per_dgram", "bytes_per_dgram"):
        assert metrics[f"runtime.codec.{name}"]["value"] > 0
    assert metrics["runtime.udp.sendto_us_per_dgram"]["value"] > 0


def test_the_suite_is_run_once_when_both_passes_are_asked_for(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli("run", "--workload", "suite-seq", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())["workloads"]["suite-seq"]
    assert result["attempted"] == 2 and "trace" not in result  # E01, E02: once each
    assert result["per_layer"]["experiments.E01.cal_s"] > 0
    assert result["end_to_end"]["suite_cal_s"] > 0


def test_relative_out_and_trace_out_land_in_the_callers_directory(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    proc = run_cli("run", "--workload", "sim-causal-clean", "--seconds", "1", "--trace", "1",
                   "--smoke", "--out", "out.json", "--trace-out", "spans.json",
                   cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.json").is_file() and (tmp_path / "spans.json").is_file()
    assert not (ROOT / "spans.json").exists()


def test_no_result_and_nonzero_exit_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("run", "--workload", "sim-causal-clean", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
