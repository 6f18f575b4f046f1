"""Run every experiment and print its tables and verdicts.

Usage::

    python -m repro.experiments                              # all experiments
    python -m repro.experiments E04 E09                      # a subset
    python -m repro.experiments --list                       # names only
    python -m repro.experiments run_all --metrics-out m.json # + metrics dump
    python -m repro.experiments --sweep seeds=0..99          # seed campaign

Experiments run one after another in this process, in the order requested
(a name given twice runs once).  One that raises is reported CRASH with its
traceback and the rest of the suite still runs.

``--sweep seeds=A..B`` switches from the curated experiment suite to a
statistical campaign: every seed in the inclusive range runs each anomaly
probe under each ordering discipline, and the report gives per-discipline
anomaly counts, rates and Wilson 95% confidence intervals (see
``repro.experiments.sweep``).

``--metrics-out PATH`` captures every metrics registry the experiments
create (kernel, network, ordering, membership — see
``docs/OBSERVABILITY.md``) and writes one aggregated JSON dump per
experiment; under ``--sweep`` it writes the ``repro.sweep/v1`` campaign
summary instead.  ``run_all``/``all`` are accepted as explicit spellings of
"the whole suite".

Exit status is non-zero if any reproduction check fails or any experiment
crashes.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.harness import ExperimentResult
from repro.obs import aggregate, capture, write_json

SEPARATOR = "#" * 78

#: Envelope verdicts, in severity order.
PASS, FAIL, CRASH = "pass", "FAIL", "CRASH"


def registry() -> Dict[str, Callable[[], ExperimentResult]]:
    """The experiment registry, in report order (imports are deferred until
    the first call, so importing this module stays cheap)."""
    from repro.experiments.e01_event_diagram import run_e01
    from repro.experiments.e02_hidden_channel import run_e02
    from repro.experiments.e03_external_channel import run_e03
    from repro.experiments.e04_trading import run_e04
    from repro.experiments.e05_scaling import run_e05
    from repro.experiments.e06_false_causality import run_e06
    from repro.experiments.e07_overhead import run_e07
    from repro.experiments.e08_detection import run_e08
    from repro.experiments.e09_replication import run_e09
    from repro.experiments.e10_realtime import run_e10
    from repro.experiments.e11_drilling import run_e11
    from repro.experiments.e12_rpc_deadlock import run_e12
    from repro.experiments.e13_membership import run_e13
    from repro.experiments.e14_netnews import run_e14
    from repro.experiments.e15_piggyback import run_e15
    from repro.experiments.e16_stability import run_e16
    from repro.experiments.e17_partitioning import run_e17
    from repro.experiments.e18_netnews_causal import run_e18
    from repro.experiments.e19_nameservice import run_e19

    return {
        "E01": run_e01, "E02": run_e02, "E03": run_e03, "E04": run_e04,
        "E05": run_e05, "E06": run_e06, "E07": run_e07, "E08": run_e08,
        "E09": run_e09, "E10": run_e10, "E11": run_e11, "E12": run_e12,
        "E13": run_e13, "E14": run_e14, "E15": run_e15, "E16": run_e16,
        "E17": run_e17, "E18": run_e18, "E19": run_e19,
    }


def prewarm_registry() -> None:
    """Resolve the registry, and thereby import every experiment module, so
    the import cost is paid before (and timed apart from) the first run."""
    registry()


# -- the per-experiment envelope -------------------------------------------------


def run_one(name: str, want_metrics: bool) -> Dict[str, Any]:
    """Execute one experiment and wrap the outcome in a plain-data envelope:
    the rendered report, the verdict, the names of unmet checks, the
    aggregated ``repro.obs`` metrics dump (when requested), and the
    traceback if the experiment raised.

    Only a run that wants metrics opens :func:`~repro.obs.capture`: a
    captured registry's gauges close over their simulator and members, so
    the sink would keep every group the experiment builds alive until it
    ends.  Without it each simulation is garbage once the experiment drops
    it.
    """
    envelope: Dict[str, Any] = {
        "name": name,
        "verdict": CRASH,
        "failed_checks": [],
        "rendered": "",
        "metrics": None,
        "traceback": None,
    }
    try:
        with capture() if want_metrics else nullcontext() as registries:
            result = registry()[name]()
        envelope["rendered"] = result.render()
        envelope["failed_checks"] = [
            check for check, ok in result.checks.items() if not ok
        ]
        envelope["verdict"] = PASS if result.passed else FAIL
        if want_metrics:
            envelope["metrics"] = aggregate(registries)
    except Exception:
        envelope["traceback"] = traceback.format_exc()
    return envelope


# -- CLI ------------------------------------------------------------------------


def _parse_args(argv: List[str]) -> tuple:
    """Split argv into (tokens, metrics path, sweep, error)."""
    names: List[str] = []
    metrics_out = None
    sweep: Optional[str] = None
    options = ("--metrics-out", "--sweep")
    i = 0
    while i < len(argv):
        arg = argv[i]
        value = None
        if arg in options:
            if i + 1 >= len(argv):
                return [], None, None, f"{arg} requires a value"
            value = argv[i + 1]
            i += 2
        elif arg.startswith(tuple(option + "=" for option in options)):
            arg, value = arg.split("=", 1)
            i += 1
        elif arg.startswith("-"):
            return [], None, None, f"unknown option: {arg}"
        else:
            names.append(arg)
            i += 1
            continue
        if arg == "--metrics-out":
            metrics_out = value
        else:
            sweep = value
    return names, metrics_out, sweep, None


def _print_report(envelopes: List[Dict[str, Any]]) -> None:
    for envelope in envelopes:
        if envelope["verdict"] == CRASH:
            print(f"== {envelope['name']}: CRASHED ==")
            print()
            print(envelope["traceback"], end="")
        else:
            print(envelope["rendered"])
        print()
        print(SEPARATOR)
        print()


def _print_verdicts(envelopes: List[Dict[str, Any]]) -> None:
    print("per-experiment verdicts:")
    for envelope in envelopes:
        line = f"  {envelope['name']}  {envelope['verdict']}"
        if envelope["failed_checks"]:
            line += "  (unmet: " + "; ".join(envelope["failed_checks"]) + ")"
        if envelope["verdict"] == CRASH:
            last = envelope["traceback"].strip().splitlines()[-1]
            line += f"  ({last})"
        print(line)


def main(argv: List[str]) -> int:
    if "--list" in argv:
        for name in registry():
            print(name)
        return 0
    tokens, metrics_out, sweep, error = _parse_args(argv)
    if error:
        print(error, file=sys.stderr)
        return 2

    if sweep is not None:
        from repro.experiments.sweep import parse_seed_range, run_sweep

        try:
            lo, hi = parse_seed_range(sweep)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if tokens:
            print("--sweep runs the fixed probe campaign; experiment names "
                  f"are not accepted (got {tokens})", file=sys.stderr)
            return 2
        return run_sweep(lo, hi, metrics_out)

    experiments = registry()
    # dict.fromkeys: a name asked for twice (``E01 e01``) runs once.
    wanted = list(dict.fromkeys(
        t.upper() for t in tokens if t.lower() not in ("run_all", "all")))
    wanted = wanted or list(experiments)
    unknown = [w for w in wanted if w not in experiments]
    if unknown:
        print(f"unknown experiments: {unknown}; use --list", file=sys.stderr)
        return 2
    want_metrics = metrics_out is not None
    envelopes = [run_one(name, want_metrics) for name in wanted]

    _print_report(envelopes)
    _print_verdicts(envelopes)

    failures = [e["name"] for e in envelopes if e["verdict"] == FAIL]
    crashes = [e["name"] for e in envelopes if e["verdict"] == CRASH]
    if metrics_out is not None:
        dumps = {e["name"]: e["metrics"] for e in envelopes
                 if e["metrics"] is not None}
        try:
            write_json(metrics_out, dumps)
        except OSError as exc:
            print(f"cannot write metrics to {metrics_out}: {exc}", file=sys.stderr)
            return 2
        print(f"metrics for {len(dumps)} experiments "
              f"written to {metrics_out}")
    status = "ALL PASSED"
    if failures or crashes:
        parts = []
        if failures:
            parts.append("FAILED: " + ", ".join(failures))
        if crashes:
            parts.append("CRASHED: " + ", ".join(crashes))
        status = "; ".join(parts)
    print(f"ran {len(wanted)} experiments; {status}")
    return 1 if failures or crashes else 0


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    raise SystemExit(main(sys.argv[1:]))
