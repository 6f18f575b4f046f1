"""E16 (ablation) — Section 5: stability traffic vs. buffer occupancy.

"[Delaying] increases the communication overhead for 'stabilizing' messages
because there are fewer application messages on which to piggyback
acknowledgment information (such as the 'vector clock')."

Atomic delivery buffers every message until it is known received everywhere.
While traffic flows, acks piggyback for free; the cost shows after a burst,
when gossip is the only carrier of stability information.  The ablation
sends a burst, then sweeps the gossip period and measures the designer's
dilemma: gossip often (pay messages) or rarely (hold buffers longer).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.catocs import build_group
from repro.experiments.harness import ExperimentResult, Table
from repro.sim import LinkModel, Network, Simulator


def _run(seed: int, ack_period: float, size: int, burst: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=4.0))
    pids = [f"p{i}" for i in range(size)]
    members = build_group(sim, net, pids, ordering="causal",
                          ack_period=ack_period)
    layers = [m.stack.layer("stability") for m in members.values()]
    # The burst: everyone multicasts in a tight window, then silence.
    for index, pid in enumerate(pids):
        for k in range(burst):
            sim.call_at(1.0 + index * 0.5 + k * 2.0, members[pid].multicast,
                        {"kind": "burst", "n": k})

    # Sample total buffered messages over time (the occupancy integral).
    samples = []

    def probe() -> None:
        total = sum(layer.layer_metrics()["buffered"] for layer in layers)
        samples.append((sim.now, total))
        if sim.now < 4000.0:
            sim.call_later(5.0, probe)

    sim.call_at(0.0, probe)
    sim.run(until=4100.0)

    drained_at = next(
        (t for t, total in samples if t > burst * 2.0 + 30.0 and total == 0),
        float("inf"),
    )
    integral = sum(total * 5.0 for _, total in samples)
    counters = [layer.layer_metrics() for layer in layers]
    # a broadcast tick reaches every peer; an answer goes to one querier
    gossip = (sum(c["gossip_sent"] for c in counters) * (size - 1)
              + sum(c["gossip_answers"] for c in counters))
    return {
        "gossip_messages": gossip,
        "buffer_time_integral": integral,
        "drained_at": drained_at,
        "residual": samples[-1][1],
    }


def run_e16(
    seed: int = 0,
    size: int = 6,
    burst: int = 15,
    ack_periods: Sequence[float] = (15.0, 60.0, 240.0, 960.0),
) -> ExperimentResult:
    table = Table(
        f"Stability gossip period vs buffering after a burst (N={size}, "
        f"{size * burst} multicasts in ~{burst * 2:.0f} time units)",
        ["gossip period", "gossip msgs", "gossip msgs per unit until drained",
         "buffer-time integral (msg*t)", "buffers drained at", "left unstable at end"],
    )
    rows: Dict[float, Dict[str, float]] = {}
    for period in ack_periods:
        metrics = _run(seed, period, size, burst)
        metrics["gossip_rate"] = metrics["gossip_messages"] / metrics["drained_at"]
        rows[period] = metrics
        table.add_row(
            period,
            metrics["gossip_messages"],
            round(metrics["gossip_rate"], 3),
            round(metrics["buffer_time_integral"]),
            round(metrics["drained_at"], 1),
            metrics["residual"],
        )

    fastest, slowest = ack_periods[0], ack_periods[-1]
    checks = {
        "frequent gossip costs more messages": (
            rows[fastest]["gossip_rate"] > 4 * rows[slowest]["gossip_rate"]
        ),
        "rare gossip holds buffers much longer": (
            rows[slowest]["buffer_time_integral"]
            > 3 * rows[fastest]["buffer_time_integral"]
        ),
        "drain time grows with the period": (
            rows[slowest]["drained_at"] > rows[fastest]["drained_at"]
        ),
        "everything eventually stabilises": all(
            m["residual"] == 0 for m in rows.values()
        ),
    }
    return ExperimentResult(
        experiment_id="E16",
        title="Section 5 ablation — stability traffic vs atomicity buffers",
        tables=[table],
        checks=checks,
        notes=(
            "Atomic delivery makes this trade unavoidable: every message is "
            "held by every member until known globally received, and once "
            "application traffic quiesces there is nothing to piggyback "
            "acks on — the paper's point about fewer application messages "
            "carrying the vector clock.  A member whose buffer has drained "
            "sends no gossip, so after the drain every period costs the same "
            "few messages; the price of frequent gossip is its rate while "
            "buffers are held, gossip messages per time unit until drained, "
            "and that rate must be more than 4x the rarest period's."
        ),
    )
