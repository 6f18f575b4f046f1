"""E06 — Section 3.4: false-causality delivery delay.

"CATOCS is prone to delaying messages based on false causality, namely
messages that are incidentally causally dependent at the communication level
but not semantically causally dependent."

Workload: every member emits timer-driven ticks — semantically independent
of everything — over a lossy network.  Under causal delivery, a lost message
makes every message that *incidentally* happened-after it undeliverable until
NAK repair; under raw delivery nothing waits.  The experiment sweeps the
loss rate and reports mean delivery latency, total delay-queue residency,
and the fraction of deliveries that were held, per ordering.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.catocs import build_group
from repro.experiments.harness import ExperimentResult, Table, mean
from repro.sim import LinkModel, Network, Simulator


def run_ticks(seed: int, ordering: str, drop_prob: float, size: int,
              msgs_per_member: int, interval: float) -> Dict[str, float]:
    """The independent-tick workload under ``ordering``: E06's delay metrics
    and the bytes on the wire, which E15 prices its piggyback variant by."""
    sim = Simulator(seed=seed)
    net = Network(
        sim, LinkModel(latency=5.0, jitter=4.0, drop_prob=drop_prob)
    )
    pids = [f"p{i}" for i in range(size)]
    ack_period = 30.0
    members = build_group(sim, net, pids, ordering=ordering,
                          nak_delay=10.0, ack_period=ack_period)
    for index, pid in enumerate(pids):
        for k in range(msgs_per_member):
            at = 1.0 + index * (interval / size) + k * interval
            sim.call_at(at, members[pid].multicast,
                        {"kind": "tick", "n": k, "from": pid})
    # Ten gossip rounds after the last tick every loss is repaired and
    # every gossip tick is quiet.
    sim.run(until=msgs_per_member * interval + 10 * ack_period)

    latencies = []
    held = 0
    total_hold = 0.0
    delivered = 0
    for member in members.values():
        for record in member.delivered:
            if record.sender != member.pid:  # remote deliveries only
                latencies.append(record.latency)
                delivered += 1
        total_hold += member.ordering.total_hold_time()
        held += sum(1 for _, d in member.ordering.hold_log if d > 0)
    expected = size * msgs_per_member * (size - 1)
    return {
        "mean_latency": mean(latencies),
        "p_held": held / max(delivered, 1),
        "total_hold": total_hold,
        "bytes_sent": net.stats.bytes_sent,
        "delivered_frac": delivered / expected,
    }


def run_e06(
    seed: int = 0,
    size: int = 6,
    msgs_per_member: int = 25,
    interval: float = 12.0,
    drop_probs: Sequence[float] = (0.0, 0.03, 0.08, 0.15),
) -> ExperimentResult:
    table = Table(
        "Section 3.4: delivery cost of incidental ordering "
        f"(N={size}, independent tick workload)",
        ["drop prob", "ordering", "mean latency", "frac held",
         "total hold time", "delivered frac"],
    )
    data: Dict[tuple, Dict[str, float]] = {}
    for drop_prob in drop_probs:
        for ordering in ("raw", "fifo", "causal"):
            metrics = run_ticks(seed, ordering, drop_prob, size, msgs_per_member, interval)
            data[(drop_prob, ordering)] = metrics
            table.add_row(
                drop_prob, ordering,
                round(metrics["mean_latency"], 2),
                round(metrics["p_held"], 3),
                round(metrics["total_hold"], 1),
                round(metrics["delivered_frac"], 3),
            )

    lossy = [p for p in drop_probs if p > 0]
    causal_slower_than_raw = all(
        data[(p, "causal")]["mean_latency"] > data[(p, "raw")]["mean_latency"]
        for p in lossy
    )
    causal_hold_at_least_fifo = all(
        data[(p, "causal")]["total_hold"] >= data[(p, "fifo")]["total_hold"]
        for p in lossy
    )
    hold_grows = (
        data[(drop_probs[-1], "causal")]["total_hold"]
        > data[(drop_probs[1], "causal")]["total_hold"]
    )
    lossless_equal = (
        abs(data[(0.0, "causal")]["mean_latency"]
            - data[(0.0, "raw")]["mean_latency"]) < 2.0
    )
    everyone_delivers = all(m["delivered_frac"] > 0.999 for m in data.values())

    checks = {
        "causal latency > raw latency under loss": causal_slower_than_raw,
        "causal holds at least as long as FIFO": causal_hold_at_least_fifo,
        "causal hold time grows with loss rate": hold_grows,
        "no inflation on a lossless network (sanity)": lossless_equal,
        "atomicity: everything eventually delivered": everyone_delivers,
    }
    return ExperimentResult(
        experiment_id="E06",
        title="Section 3.4 — false causality: delay with zero semantic payoff",
        tables=[table],
        checks=checks,
        notes=(
            "Every tick is semantically independent, so *all* hold time here "
            "is false-causality cost: messages waiting for supposedly "
            "'causally prior' traffic they never depended on."
        ),
    )
