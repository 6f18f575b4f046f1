"""Seed-sweep statistical campaigns: anomaly *rates*, not single runs.

The paper's argument is statistical — CATOCS cannot prevent hidden- or
external-channel anomalies, so what matters is how *often* each ordering
discipline lets one through, not whether one curated run does.  The
experiment suite (E01-E19) reproduces the curated runs; this module runs the
campaign: every seed in ``A..B`` executes each anomaly probe under each
discipline, and the report gives per-discipline anomaly counts, rates and
Wilson 95% confidence intervals.

Probes (one per hidden-channel family from Sections 2-3):

``shopfloor``
    Figure 2 — shared-database hidden channel, jittered asymmetric links.
``firealarm``
    Figure 3 — external (real-world) channel, straggling monitor links.
``threads``
    Section 3 — address-space hidden channel; the two send delays are drawn
    from a per-seed RNG, so the scheduling race itself is what is swept.
"""

from __future__ import annotations

import json
import math
import random
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.harness import Table

#: Version tag written into ``--metrics-out`` dumps for sweep campaigns.
SCHEMA = "repro.sweep/v1"

#: The disciplines every probe is swept under (registry aliases).
SWEEP_DISCIPLINES: Tuple[str, ...] = (
    "raw", "fifo", "causal", "total-seq", "total-agreed", "hybrid-causal",
)


def _probe_shopfloor(seed: int, discipline: str) -> bool:
    from repro.apps.shopfloor import run_shopfloor

    return run_shopfloor(
        seed=seed, ordering=discipline,
        slow_instance_latency=15.0, fast_instance_latency=5.0, jitter=30.0,
    ).anomaly


def _probe_firealarm(seed: int, discipline: str) -> bool:
    from repro.apps.firealarm import run_firealarm

    return run_firealarm(
        seed=seed, ordering=discipline,
        monitor_latency=45.0, jitter=40.0,
    ).anomaly


def _probe_threads(seed: int, discipline: str) -> bool:
    from repro.apps.threads import run_thread_channel

    rng = random.Random(f"threads:{seed}")
    return run_thread_channel(
        seed=seed,
        thread1_send_delay=rng.uniform(0.0, 30.0),
        thread2_send_delay=rng.uniform(0.0, 10.0),
        ordering=discipline,
    ).anomaly


#: (name, paper hook, probe) in report order.
PROBES: Tuple[Tuple[str, str, Callable[[int, str], bool]], ...] = (
    ("shopfloor", "Fig. 2 shared-DB hidden channel", _probe_shopfloor),
    ("firealarm", "Fig. 3 external channel", _probe_firealarm),
    ("threads", "Sec. 3 address-space channel", _probe_threads),
)


def parse_seed_range(spec: str) -> Tuple[int, int]:
    """Parse ``seeds=A..B`` (inclusive) — the ``--sweep`` argument.

    Accepts the bare ``A..B`` form too.  Raises :class:`ValueError` with a
    usage hint on anything else.
    """
    body = spec[len("seeds="):] if spec.startswith("seeds=") else spec
    lo_s, sep, hi_s = body.partition("..")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(
            f"--sweep expects seeds=A..B (an inclusive integer range), "
            f"got {spec!r}"
        ) from None
    if lo > hi:
        raise ValueError(f"--sweep range is empty: {lo} > {hi}")
    return lo, hi


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion.

    Preferred over the normal approximation because campaign rates sit at
    the extremes (``total-agreed`` often blocks *every* anomaly; ``raw``
    often misses none) where Wald intervals collapse to zero width.
    """
    if n <= 0:
        return (0.0, 0.0)
    phat = k / n
    denom = 1.0 + z * z / n
    centre = phat + z * z / (2 * n)
    spread = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n))
    return ((centre - spread) / denom, (centre + spread) / denom)


def campaign_tables(lo: int, hi: int,
                    totals: Tuple[int, Tuple[int, ...]]) -> List[Table]:
    """Render the campaign as one table per probe."""
    runs, counts = totals
    tables: List[Table] = []
    index = 0
    for name, hook, _ in PROBES:
        table = Table(
            f"{name} ({hook}) — anomaly rate over seeds {lo}..{hi}",
            ["discipline", "runs", "anomalies", "rate", "95% CI"],
        )
        for discipline in SWEEP_DISCIPLINES:
            k = counts[index]
            ci_lo, ci_hi = wilson_interval(k, runs)
            table.add_row(
                discipline, runs, k,
                f"{k / runs:.3f}" if runs else "n/a",
                f"[{ci_lo:.3f}, {ci_hi:.3f}]",
            )
            index += 1
        tables.append(table)
    return tables


def render_report(lo: int, hi: int,
                  totals: Tuple[int, Tuple[int, ...]]) -> str:
    """The campaign report; depends only on the seed range and the totals."""
    runs, _ = totals
    parts = [
        f"== SWEEP: anomaly rates by discipline, seeds {lo}..{hi} "
        f"({runs} seeds x {len(PROBES)} probes x "
        f"{len(SWEEP_DISCIPLINES)} disciplines) =="
    ]
    parts += [table.render() for table in campaign_tables(lo, hi, totals)]
    parts.append(
        "Rates are per-seed anomaly frequencies with Wilson 95% confidence\n"
        "intervals.  The campaign restates the paper's Section 2-3 argument\n"
        "statistically: ordering disciplines barely move the hidden- and\n"
        "external-channel anomaly rates, because the causality those\n"
        "anomalies ride on is invisible to the communication substrate."
    )
    return "\n\n".join(parts)


def campaign_metrics(lo: int, hi: int,
                     totals: Tuple[int, Tuple[int, ...]]) -> Dict[str, Any]:
    """The machine-readable campaign summary (``--metrics-out`` payload)."""
    runs, counts = totals
    probes: Dict[str, Any] = {}
    index = 0
    for name, _, _ in PROBES:
        per_discipline: Dict[str, Any] = {}
        for discipline in SWEEP_DISCIPLINES:
            k = counts[index]
            ci_lo, ci_hi = wilson_interval(k, runs)
            per_discipline[discipline] = {
                "runs": runs,
                "anomalies": k,
                "rate": round(k / runs, 6) if runs else None,
                "ci95": [round(ci_lo, 6), round(ci_hi, 6)],
            }
            index += 1
        probes[name] = per_discipline
    return {
        "schema": SCHEMA,
        "seeds": {"lo": lo, "hi": hi, "count": runs},
        "disciplines": list(SWEEP_DISCIPLINES),
        "probes": probes,
    }


def write_metrics(path: str, metrics: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sweep(lo: int, hi: int, metrics_out: Optional[str] = None) -> int:
    """Run seeds ``lo..hi`` (inclusive) through every probe x discipline and
    print the report; returns the exit status.

    The totals are the seed count and a flat probe-major vector of anomaly
    counts, the shape :func:`render_report` and :func:`campaign_metrics`
    read.
    """
    counts = [0] * (len(PROBES) * len(SWEEP_DISCIPLINES))
    for seed in range(lo, hi + 1):
        index = 0
        for _, _, probe in PROBES:
            for discipline in SWEEP_DISCIPLINES:
                counts[index] += bool(probe(seed, discipline))
                index += 1
    totals = (hi - lo + 1, tuple(counts))
    print(render_report(lo, hi, totals))
    if metrics_out is not None:
        try:
            write_metrics(metrics_out, campaign_metrics(lo, hi, totals))
        except OSError as exc:
            print(f"cannot write metrics to {metrics_out}: {exc}",
                  file=sys.stderr)
            return 2
        print()
        print(f"sweep metrics written to {metrics_out}")
    return 0
