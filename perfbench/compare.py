"""``compare`` two results and ``selfcheck`` the benchmark against itself.

``compare A B`` prints one row per (workload, end-to-end metric) with the
ratio B/A *and its base*, and a verdict.  Each side is one ``--out`` file or
several joined by commas (several runs of one commit).  A side's value is
the median over its runs; its spread is the runs' IQR/median, or with a
single run the spread of that run's own slices, which is wider.  A metric
that is one sample per run (``suite_cal_s``, ``peak_rss_mb``) has no spread
estimate at all with a single run.  Verdicts:

- ``worse``: B's median is worse than A's by more than the metric's bound;
- ``unresolved``: not worse, but there is no spread estimate, or a spread is
  wider than the bound, so "no regression" cannot be told from noise: run
  more runs per side.  Unless both sides have at least two runs and every
  run of B is better than every run of A, which is ``better``;
- ``better``: B improved by more than the wider spread;
- ``within-bound``: anything else.

Cells that hold stand-ins (:data:`perfbench.catalogue.NATIVE`) are not
compared: they restate a native cell of the same workload.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from perfbench import SCHEMA, catalogue
from perfbench.calibrate import iqr_share

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within-bound", "worse", "unresolved"


class Row(NamedTuple):
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    #: (b - a) / a, signed so that positive is worse
    worsening: float
    #: the wider side's IQR/median; None when a side has no estimate
    spread: Optional[float]
    bound: float
    verdict: str


def load_side(spec: str) -> List[Dict[str, Any]]:
    """The result documents named by ``spec`` (comma-separated paths)."""
    docs = []
    for path in spec.split(","):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a {SCHEMA} document")
        if not doc.get("comparable", False):
            raise SystemExit(f"{path}: a --smoke result; not comparable")
        docs.append(doc)
    return docs


def _values(docs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [doc["workloads"][workload]["end_to_end"][metric] for doc in docs
            if "end_to_end" in doc["workloads"].get(workload, {})]


#: In-sim these are pure functions of the pinned seeds: no spread at all.
_EXACT_IN_SIM = frozenset({"wire_msgs_per_delivery", "wire_bytes_per_delivery",
                           "sim_latency_p50", "sim_latency_p99", "peak_buffered_msgs"})


def _slice_spread(doc: Dict[str, Any], workload: str, metric: str) -> Optional[float]:
    """One run's own noise estimate for ``metric``: the spread of the
    samples its value was taken over (0 for exact counts), or None when the
    run holds a single sample of it."""
    result = doc["workloads"][workload]
    body = result["measure"]
    if metric == "cal_us_per_delivery":
        return body["host"]["iqr_share"]
    if metric == "serial_cal_us_per_multicast":
        return body["host_serial"]["iqr_share"]
    if metric == "setup_s":
        return iqr_share([s["cal_s"] for s in result["setup_samples"]])
    if metric in _EXACT_IN_SIM and workload in (catalogue.SIM_CLEAN, catalogue.SIM_LOSSY):
        return 0.0
    if metric in ("wire_msgs_per_delivery", "wire_bytes_per_delivery"):
        # Over UDP the ratios vary with gossip timing, slice by slice.
        key = metric[:-len("_per_delivery")]
        return iqr_share([
            sum(s[p]["counts"][key] for p in ("serial", "pipelined"))
            / sum(s[p]["counts"]["deliveries"] for p in ("serial", "pipelined"))
            for s in body["slices"]])
    return None


def _spread(docs: Sequence[Dict[str, Any]], workload: str, metric: str) -> Optional[float]:
    values = _values(docs, workload, metric)
    if len(values) >= 2:
        return iqr_share(values)
    return _slice_spread(docs[0], workload, metric)


def judge(metric: catalogue.Metric, a: Sequence[float], b: Sequence[float],
          spread: Optional[float]) -> Row:
    """The row for one metric on one workload (workload filled in later)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    worsening = sign * (mid_b - mid_a) / mid_a
    bound = metric.bound or 0.0
    if worsening > bound:
        verdict = WORSE
    elif spread is None:
        verdict = UNRESOLVED
    elif spread > bound:
        # "Every run of B beats every run of A" says nothing with one run a side.
        separated = min(len(a), len(b)) >= 2 and (
            (max(b) < min(a)) if sign > 0 else (min(b) > max(a)))
        verdict = BETTER if separated else UNRESOLVED
    elif worsening < 0 and -worsening > spread:
        verdict = BETTER
    else:
        verdict = WITHIN
    return Row("", metric.name, metric.unit, mid_a, mid_b, worsening, spread, bound, verdict)


def compare(a_docs: Sequence[Dict[str, Any]], b_docs: Sequence[Dict[str, Any]]) -> List[Row]:
    rows: List[Row] = []
    for workload in catalogue.WORKLOAD_NAMES:
        for metric in catalogue.END_TO_END:
            if workload not in catalogue.NATIVE[metric.name]:
                continue
            a, b = _values(a_docs, workload, metric.name), _values(b_docs, workload, metric.name)
            if not a or not b:
                continue
            spreads = (_spread(a_docs, workload, metric.name),
                       _spread(b_docs, workload, metric.name))
            spread = None if None in spreads else max(spreads)
            rows.append(judge(metric, a, b, spread)._replace(workload=workload))
    return rows


def _failed_share(docs: Sequence[Dict[str, Any]], workload: str) -> Optional[float]:
    shares = [doc["workloads"][workload]["failed_share"] for doc in docs
              if workload in doc["workloads"]]
    return max(shares) if shares else None


def print_rows(rows: Sequence[Row]) -> None:
    print(f"{'workload':<20} {'metric':<28} {'A (base)':>12} {'B':>12} {'B/A':>7} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        spread = "n/a" if row.spread is None else f"{row.spread:.3f}"
        print(f"{row.workload:<20} {row.metric:<28} {row.a:>12.6g} {row.b:>12.6g} "
              f"{row.b / row.a:>7.3f} {spread:>7} {row.bound:>6.2f}  "
              f"{row.verdict}  [{row.unit}]")


def compare_files(a_spec: str, b_spec: str) -> int:
    """``perfbench compare``: non-zero when anything is worse or any
    workload's ``failed_share`` rose."""
    a_docs, b_docs = load_side(a_spec), load_side(b_spec)
    rows = compare(a_docs, b_docs)
    print_rows(rows)
    status = 0
    for workload in catalogue.WORKLOAD_NAMES:
        fa, fb = _failed_share(a_docs, workload), _failed_share(b_docs, workload)
        if fa is None or fb is None:
            continue
        rose = fb > fa
        print(f"{workload:<20} {'failed_share':<28} {fa:>12.6g} {fb:>12.6g}"
              f"{'  ROSE' if rose else ''}")
        status |= rose
    if any(row.verdict == WORSE for row in rows):
        status = 1
    print("ratios are B/A with A as the base; spread is IQR/median "
          f"({len(a_docs)} run(s) of A, {len(b_docs)} of B)")
    return int(status)


def selfcheck(workloads: Sequence[str], seed: int, seconds: float, smoke: bool,
              sets: int, runs: int) -> int:
    """Run the same code in ``sets`` sets of ``runs`` runs, one set after the
    other, and fail if any end-to-end metric's set medians differ by more
    than its bound: the benchmark must not see a change where there is none."""
    from perfbench import runner

    medians: List[Dict[str, Dict[str, float]]] = []
    for number in range(sets):
        per_workload: Dict[str, Dict[str, float]] = {}
        for workload in workloads:
            results = [runner.run_workload(workload, seed + run, seconds, smoke, trace=0)
                       for run in range(runs)]
            if not all(r["correct"] for r in results):
                print(f"set {number}: {workload} failed its correctness oracles")
                return 1
            per_workload[workload] = {
                m.name: statistics.median(r["end_to_end"][m.name] for r in results)
                for m in catalogue.END_TO_END
            }
        medians.append(per_workload)
    status = 0
    print(f"{'workload':<20} {'metric':<28} " + " ".join(f"{'set ' + str(i):>12}"
                                                         for i in range(sets))
          + f" {'max diff':>9} {'bound':>6}")
    for workload in workloads:
        for metric in catalogue.END_TO_END:
            if workload not in catalogue.NATIVE[metric.name]:
                continue
            values = [per_set[workload][metric.name] for per_set in medians]
            diff = (max(values) - min(values)) / min(values)
            failed = diff > (metric.bound or 0.0)
            status |= failed
            print(f"{workload:<20} {metric.name:<28} "
                  + " ".join(f"{v:>12.6g}" for v in values)
                  + f" {diff:>9.4f} {metric.bound:>6.2f}{'  DISAGREE' if failed else ''}")
    return int(status)
