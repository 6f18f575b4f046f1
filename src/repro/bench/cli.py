"""``python -m repro.bench`` — produce and gate performance records.

Subcommands::

    run      time the micro workloads (and optionally the full experiment
             suite, sequential + parallel) and write the next BENCH_<n>.json
    compare  diff the two newest records (or explicit --baseline/--candidate)
             and exit non-zero on any regression beyond --threshold

``compare`` is deliberately forgiving when there is nothing to compare —
a repo with zero or one record prints a note and exits 0, so the CI step
is non-blocking on its first run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional

from repro.bench import ledger, workloads


def _measure(args: argparse.Namespace) -> Dict[str, Any]:
    repeats = args.repeats
    metrics: Dict[str, Any] = {
        "kernel_events_per_sec": round(
            workloads.kernel_events_per_sec(repeats=repeats), 1),
        "network_msgs_per_sec": round(
            workloads.network_msgs_per_sec(repeats=repeats), 1),
        "runtime_msgs_per_sec": round(
            workloads.runtime_msgs_per_sec(repeats=repeats), 1),
        "multicast_us_per_delivery": {
            k: round(v, 2)
            for k, v in workloads.multicast_us_per_delivery(repeats=repeats).items()
        },
        "clock_compare_ns": {
            k: round(v, 1)
            for k, v in workloads.clock_compare_ns(repeats=repeats).items()
        },
        "clock_stamp_ns": {
            k: round(v, 1)
            for k, v in workloads.clock_stamp_ns(repeats=repeats).items()
        },
        "analysis": {
            k: round(v, 3)
            for k, v in workloads.analysis_cold_warm_s(
                repeats=min(repeats, 2)).items()
        },
    }
    if not args.skip_suite:
        metrics["suite"] = workloads.suite_wall_clock(args.jobs)
        metrics["parallel_sweep"] = workloads.parallel_sweep(args.jobs)
    return metrics


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.engine import effective_cpu_count

    record = {
        "schema": ledger.SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "metrics": _measure(args),
    }
    path = ledger.write_record(record, args.out_dir)
    print(json.dumps(record["metrics"], indent=2, sort_keys=True))
    print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline_path: Optional[str] = args.baseline
    candidate_path: Optional[str] = args.candidate
    if baseline_path is None or candidate_path is None:
        newest = ledger.latest_records(args.out_dir, count=2)
        if len(newest) < 2 and (baseline_path is None and candidate_path is None):
            print(f"fewer than two BENCH_<n>.json records in {args.out_dir}; "
                  "nothing to compare (first run?)")
            return 0
        if baseline_path is None:
            if not newest[:-1]:
                print("no baseline record available; nothing to compare")
                return 0
            baseline_path = newest[-2] if len(newest) >= 2 else newest[0]
        if candidate_path is None:
            if not newest:
                print("no candidate record available; nothing to compare")
                return 0
            candidate_path = newest[-1]
    baseline = ledger.load_record(baseline_path)
    candidate = ledger.load_record(candidate_path)
    rows = ledger.compare_records(baseline, candidate, threshold=args.threshold)
    print(f"baseline:  {baseline_path} (index {baseline.get('index')})")
    print(f"candidate: {candidate_path} (index {candidate.get('index')})")
    print(ledger.render_comparison(rows))
    regressions = [row["metric"] for row in rows if row["regressed"]]
    if regressions:
        verb = "WARNING" if args.warn_only else "FAIL"
        print(f"{verb}: {len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 0 if args.warn_only else 1
    print(f"no regressions beyond {args.threshold:.0%}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="performance-regression ledger: record and compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="measure and write the next BENCH_<n>.json")
    run_p.add_argument("--out-dir", default=".",
                       help="directory holding the BENCH_<n>.json ledger")
    run_p.add_argument("--repeats", type=int, default=3,
                       help="best-of repeats per workload (default 3)")
    run_p.add_argument("--jobs", type=int, default=0,
                       help="worker count for the parallel suite/sweep "
                            "timings (0 = at least 2, more if the "
                            "scheduling affinity allows)")
    run_p.add_argument("--skip-suite", action="store_true",
                       help="skip the full-suite wall-clock timing")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="diff two records; fail on regression")
    cmp_p.add_argument("--out-dir", default=".",
                       help="ledger directory (used when paths are omitted)")
    cmp_p.add_argument("--baseline", default=None,
                       help="baseline record path (default: second-newest)")
    cmp_p.add_argument("--candidate", default=None,
                       help="candidate record path (default: newest)")
    cmp_p.add_argument("--threshold", type=float, default=0.25,
                       help="relative regression threshold (default 0.25)")
    cmp_p.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0")
    cmp_p.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs == 0:
        # At least two workers: the speedup floor gate is about the engine
        # beating a sequential run, and a one-worker "parallel" timing (the
        # BENCH_1-4 mistake on a cgroup-limited box) measures only overhead.
        from repro.experiments.engine import effective_cpu_count

        args.jobs = max(2, effective_cpu_count())
    return args.func(args)
