"""E15 (ablation) — Footnote 4: piggybacking instead of delaying.

"As an alternative to delaying dependent messages, causal protocols can
append earlier 'causal' messages to later dependent messages, but this
technique can significantly increase network traffic."

The ablation runs the E06 independent-tick workload under plain causal
delivery and under the piggyback variant, sweeping loss, and measures the
trade exactly as the footnote frames it: delay eliminated vs. bytes
multiplied.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.e06_false_causality import run_ticks
from repro.experiments.harness import ExperimentResult, Table

#: The Footnote 4 variant: causal delivery under the piggyback layer.
PIGGYBACK_STACK = "dedup|stability|piggyback|causal"


def run_e15(
    seed: int = 0,
    size: int = 6,
    msgs_per_member: int = 25,
    interval: float = 12.0,
    drop_probs: Sequence[float] = (0.0, 0.05, 0.15),
) -> ExperimentResult:
    table = Table(
        "Footnote 4 ablation: delay-by-holding vs attach-the-predecessors "
        f"(N={size})",
        ["drop prob", "variant", "mean latency", "total hold time",
         "bytes on wire", "bytes vs plain"],
    )
    data: Dict[tuple, Dict[str, float]] = {}
    for drop_prob in drop_probs:
        plain = run_ticks(seed, "causal", drop_prob, size, msgs_per_member, interval)
        piggy = run_ticks(seed, PIGGYBACK_STACK, drop_prob, size, msgs_per_member, interval)
        data[(drop_prob, "plain")] = plain
        data[(drop_prob, "piggyback")] = piggy
        for name, metrics in (("causal (delay)", plain), ("causal (piggyback)", piggy)):
            table.add_row(
                drop_prob, name,
                round(metrics["mean_latency"], 2),
                round(metrics["total_hold"], 1),
                metrics["bytes_sent"],
                f"{metrics['bytes_sent'] / plain['bytes_sent']:.2f}x",
            )

    lossy = [p for p in drop_probs if p > 0]
    checks = {
        "piggyback removes most of the hold time": all(
            data[(p, "piggyback")]["total_hold"]
            < 0.35 * max(data[(p, "plain")]["total_hold"], 1e-9)
            for p in lossy
        ),
        "piggyback lowers delivery latency under loss": all(
            data[(p, "piggyback")]["mean_latency"]
            < data[(p, "plain")]["mean_latency"]
            for p in lossy
        ),
        "piggyback significantly increases traffic": all(
            data[(p, "piggyback")]["bytes_sent"]
            > 1.5 * data[(p, "plain")]["bytes_sent"]
            for p in drop_probs
        ),
        "everything still delivered (both variants)": all(
            m["delivered_frac"] > 0.999 for m in data.values()
        ),
    }

    return ExperimentResult(
        experiment_id="E15",
        title="Footnote 4 ablation — piggybacked causal predecessors",
        tables=[table],
        checks=checks,
        notes=(
            "The footnote's trade, measured: attaching unstable causal "
            "predecessors to every message erases the false-causality delay "
            "of E06 but multiplies bytes on the wire — there is no free "
            "configuration of CATOCS, only a choice of which cost to pay."
        ),
    )
