"""The parent side of a run: spawn children, assemble metrics, print them.

A workload's end-to-end numbers come from one untraced *measure* child plus
a few *setup* children (set-up includes importing the program, which a
process can only do once); its per-layer numbers come from a separate
*trace* child.  Children run one at a time.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from perfbench import ROOT, SCHEMA, SRC, catalogue

#: Set-up is timed in this many extra children besides the measuring one.
SETUP_PROBES = 4
#: The driver allows a run 180 s; a child that takes longer is killed.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or printed no result."""


def spawn(kind: str, workload: str, seed: int, seconds: float, smoke: bool,
          trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one child to completion and return the object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "perfbench", "_child", kind, workload, str(seed),
            repr(seconds), "1" if smoke else "0", trace_out or ""]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{kind} child for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def stand_in(metric: str, body: Dict[str, Any]) -> float:
    """The value of an end-to-end cell whose metric does not apply.

    The driver needs every metric from every workload, non-zero, and a time
    that varies like a time.  So a host-time cell restates the workload's
    own calibrated time per unit of work in the metric's unit (it can only
    move when the workload's native time metric moves), and a count or
    virtual-time cell is the constant 1.
    """
    unit_s = body["unit_cal_s"]
    if metric == "suite_cal_s":
        return unit_s
    if metric == "serial_cal_us_per_multicast" and "unit_multicasts" in body:
        return unit_s * 1e6 / body["unit_multicasts"]
    if metric in ("cal_us_per_delivery", "serial_cal_us_per_multicast"):
        return unit_s * 1e6 / body["unit_experiments"]
    return 1.0


def end_to_end(workload: str, body: Dict[str, Any],
               setups: Sequence[Dict[str, float]]) -> Dict[str, float]:
    native = dict(body["native"])
    native["setup_s"] = statistics.median(s["cal_s"] for s in setups)
    native["peak_rss_mb"] = body["peak_rss_mb"]
    out: Dict[str, float] = {}
    for metric in catalogue.END_TO_END:
        if metric.name in native:
            out[metric.name] = native[metric.name]
        else:
            assert workload not in catalogue.NATIVE[metric.name], (workload, metric.name)
            out[metric.name] = stand_in(metric.name, body)
    return out


def per_layer(body: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload does not reach the layer."""
    measured = dict(body["per_layer"])
    measured["harness.raw_wall_s"] = body["wall_s"]
    return {m.name: float(measured.get(m.name, 0.0)) for m in catalogue.PER_LAYER}


def judge(*bodies: Dict[str, Any]) -> Dict[str, Any]:
    """Operations attempted and failed over the given children; a UDP
    decode error fails the run outright."""
    attempted = sum(b["verdict"]["attempted"] for b in bodies)
    failed = sum(b["verdict"]["failed"] for b in bodies)
    decode_errors = sum(b.get("decode_errors", 0) for b in bodies)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and decode_errors == 0 and attempted > 0,
    }


def run_workload(workload: str, seed: int, seconds: float, smoke: bool,
                 trace: Optional[int], trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload: untraced (``trace=0``), traced (``1``) or both."""
    out: Dict[str, Any] = {"workload": workload}
    bodies: List[Dict[str, Any]] = []
    if trace != 1:
        body = spawn("measure", workload, seed, seconds, smoke)
        probes = [spawn("setup", workload, seed, seconds, smoke)
                  for _ in range(SETUP_PROBES)]
        setups = [body["setup"]] + [p["setup"] for p in probes]
        out["end_to_end"] = end_to_end(workload, body, setups)
        out["setup_samples"] = setups
        out["measure"] = body
        bodies.append(body)
    if trace is None and workload == catalogue.SUITE:
        # The suite is not traced: its per-layer numbers are the pass the
        # measure child just made, not worth a second 25 s pass.
        out["per_layer"] = per_layer(body)
    elif trace != 0:
        body = spawn("trace", workload, seed, seconds, smoke, trace_out)
        out["per_layer"] = per_layer(body)
        out["trace"] = body
        bodies.append(body)
    out.update(judge(*bodies))
    return out


def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def document(results: Sequence[Dict[str, Any]], seed: int, seconds: float, smoke: bool,
             wall_s: float) -> Dict[str, Any]:
    """The ``--out`` file: everything needed to recompute any spread."""
    return {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        # --smoke numbers come from tiny slices; never compare them.
        "comparable": not smoke,
        "wall_s": wall_s,
        "environment": environment(),
        "workloads": {r["workload"]: r for r in results},
    }


# -- printing ------------------------------------------------------------------------


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(result: Dict[str, Any]) -> None:
    workload = result["workload"]
    print(f"== {workload} ==")
    if "end_to_end" in result:
        body = result["measure"]
        for metric in catalogue.END_TO_END:
            native = workload in catalogue.NATIVE[metric.name]
            note = _sample_note(metric.name, body) if native else "stand-in, see README"
            print(f"  {metric.name:<30} {_format(result['end_to_end'][metric.name]):>12} "
                  f"{metric.unit:<6} {note}")
        if "report_sha256" in body:
            print(f"  {'report_sha256':<30} {body['report_sha256']}")
        if workload == catalogue.SUITE:
            print("  (--seed and --seconds are not used here: the experiments pin "
                  "their own seeds and one pass is one sample)")
    if "per_layer" in result:
        for metric in catalogue.PER_LAYER:
            value = result["per_layer"][metric.name]
            if value:
                print(f"  {metric.name:<44} {_format(value):>12} {metric.unit}")
    print(f"  {'failed_share':<30} {_format(result['failed_share']):>12} "
          f"       {result['failed']}/{result['attempted']} operations")


def _sample_note(metric: str, body: Dict[str, Any]) -> str:
    """Sample counts and spreads beside the numbers they qualify."""
    host = body.get("host", {})
    if metric == "cal_us_per_delivery":
        return f"median of {host['slices']} slices, IQR/median {host['iqr_share']:.3f}"
    if metric == "serial_cal_us_per_multicast":
        serial = body["host_serial"]
        return f"median of {serial['slices']} slices, IQR/median {serial['iqr_share']:.3f}"
    if metric in ("sim_latency_p50", "sim_latency_p99"):
        pool = body["pool"]
        if metric == "sim_latency_p50":
            return f"n={pool['latency_samples']} pooled over {pool['groups']} seeds"
        return (f"p{pool['latency_tail_percentile']:g} of n={pool['latency_tail_samples']} "
                f"per slice, median over {pool['groups']} seeds")
    if metric == "suite_cal_s":
        return f"sum over {len(body['slices'])} experiments"
    if metric == "setup_s":
        return f"median of {SETUP_PROBES + 1} processes"
    return ""


def run(workloads: Sequence[str], seed: int, seconds: float, smoke: bool,
        trace: Optional[int], out: Optional[str], trace_out: Optional[str]) -> int:
    """Run ``workloads`` one after another; print; write ``--out``."""
    started = time.perf_counter()
    if trace_out:
        # Children run from the repository root; --out is written from here.
        trace_out = os.path.abspath(trace_out)
    results = []
    for workload in workloads:
        path = trace_out
        if trace_out and len(workloads) > 1:
            path = f"{trace_out}.{workload}"
        result = run_workload(workload, seed, seconds, smoke, trace, path)
        print_workload(result)
        results.append(result)
    wall_s = time.perf_counter() - started
    print(f"total wall time {wall_s:.1f} s" + ("  (smoke: not comparable)" if smoke else ""))
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document(results, seed, seconds, smoke, wall_s), handle, indent=1)
    if len(results) == 1 and trace is not None:
        # The driver's contract: one JSON object on the last line.
        result = results[0]
        key = "per_layer" if trace else "end_to_end"
        units = {m.name: m.unit for m in catalogue.END_TO_END + catalogue.PER_LAYER}
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result[key].items()},
        }))
    return 0 if all(r["correct"] for r in results) else 1
