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

from repro.catocs import build_group
from repro.experiments.harness import ExperimentResult, Table, mean
from repro.sim import LinkModel, Network, Simulator

#: The stack the extras-only batching comparison runs on (see run_e15).
BATCHED_STACK = "dedup|batch|stability|causal"


def _run(seed: int, piggyback: bool, drop_prob: float, size: int,
         msgs_per_member: int, interval: float,
         ordering: str = "causal") -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=4.0, drop_prob=drop_prob))
    pids = [f"p{i}" for i in range(size)]
    members = build_group(sim, net, pids, ordering=ordering,
                          nak_delay=10.0, ack_period=30.0,
                          piggyback_causal=piggyback)
    for index, pid in enumerate(pids):
        for k in range(msgs_per_member):
            at = 1.0 + index * (interval / size) + k * interval
            sim.call_at(at, members[pid].multicast,
                        {"kind": "tick", "n": k, "from": pid})
    sim.run(until=msgs_per_member * interval + 3000.0)

    latencies = []
    total_hold = 0.0
    delivered = 0
    for member in members.values():
        for record in member.delivered:
            if record.sender != member.pid:
                latencies.append(record.latency)
                delivered += 1
        total_hold += member.ordering.total_hold_time()
    expected = size * msgs_per_member * (size - 1)
    batch_saved = sum(
        m.stack.layer("batch").messages_saved()
        for m in members.values() if m.stack.layer("batch") is not None
    )
    return {
        "mean_latency": mean(latencies),
        "total_hold": total_hold,
        "bytes_sent": net.stats.bytes_sent,
        "net_msgs": net.stats.sent,
        "batch_saved": batch_saved,
        "piggyback_bytes": sum(m.piggybacked_bytes for m in members.values()),
        "delivered_frac": delivered / expected,
    }


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
        plain = _run(seed, False, drop_prob, size, msgs_per_member, interval)
        piggy = _run(seed, True, drop_prob, size, msgs_per_member, interval)
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

    # Extras-only third variant: same workload on the batching stack, to
    # quantify how many wire messages same-tick coalescing saves (tables and
    # checks above are calibrated for the two paper variants and stay as-is).
    # The savings come from bursty NAK-repair traffic, so measure at the
    # lossiest point of the sweep.
    base_drop = max(drop_probs)
    batched = _run(seed, False, base_drop, size, msgs_per_member, interval,
                   ordering=BATCHED_STACK)
    plain_base = data[(base_drop, "plain")]
    extras = {
        "batching": {
            "stack": BATCHED_STACK,
            "drop_prob": base_drop,
            "net_msgs_plain": plain_base["net_msgs"],
            "net_msgs_batched": batched["net_msgs"],
            "net_msgs_saved": plain_base["net_msgs"] - batched["net_msgs"],
            "layer_messages_saved": batched["batch_saved"],
            "delivered_frac_batched": batched["delivered_frac"],
        }
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
        extras=extras,
    )
