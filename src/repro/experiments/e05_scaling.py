"""E05 — Section 5: buffering and causal-graph growth with group size.

The paper's informal argument: with N processes, the active causal graph
holds O(N) unstable messages whose arcs grow quadratically ("a process that
multicasts ... after receiving a message introduces N new arcs"), and
atomic-delivery buffering at each node grows linearly — quadratically
system-wide.

The experiment runs a uniform causal-multicast workload (fixed messages per
member, so total traffic is proportional to N) across group sizes,
instruments the live causal graph and every member's unstable-message
buffer, and fits growth exponents in log-log space.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.catocs import GroupInstrumentation, build_group
from repro.experiments.harness import ExperimentResult, Table, fit_power_law, mean
from repro.sim import LinkModel, Network, Simulator


def _run_group(seed: int, size: int, msgs_per_member: int,
               window: float, ack_period: float) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=4.0))
    instrumentation = GroupInstrumentation()
    pids = [f"p{i}" for i in range(size)]
    members = build_group(
        sim, net, pids, ordering="causal",
        instrumentation=instrumentation, ack_period=ack_period,
    )
    for pid in pids:
        for _ in range(msgs_per_member):
            at = sim.rng.uniform(1.0, window)
            sim.call_at(at, members[pid].multicast, {"kind": "tick", "from": pid})
    # Ten gossip rounds after the last multicast every buffer has drained;
    # the peaks were reached long before.
    sim.run(until=window + 10 * ack_period)

    graph = instrumentation.metrics()
    stability = [m.stack.layer("stability").layer_metrics() for m in members.values()]
    per_node_peaks = [s["peak_buffered_bytes"] for s in stability]
    per_node_counts = [s["peak_buffered"] for s in stability]
    return {
        "peak_graph_nodes": graph["peak_nodes"],
        "peak_graph_arcs": graph["peak_arcs"],
        "total_arcs_added": graph["total_arcs_added"],
        "mean_node_peak_buffer_bytes": mean(per_node_peaks),
        "mean_node_peak_buffer_msgs": mean(per_node_counts),
        "system_peak_buffer_bytes": sum(per_node_peaks),
    }


def run_e05(
    seed: int = 0,
    sizes: Sequence[int] = (3, 5, 8, 12, 16),
    msgs_per_member: int = 12,
    window: float = 400.0,
    ack_period: float = 80.0,
) -> ExperimentResult:
    table = Table(
        "Section 5: causal-graph and buffer growth vs group size N "
        f"({msgs_per_member} msgs/member, stability gossip every {ack_period})",
        ["N", "peak graph nodes", "peak graph arcs", "arcs added total",
         "node peak buffer (B)", "system peak buffer (B)"],
    )
    rows: List[Dict[str, float]] = []
    for size in sizes:
        metrics = _run_group(seed, size, msgs_per_member, window, ack_period)
        rows.append(metrics)
        table.add_row(
            size,
            metrics["peak_graph_nodes"],
            metrics["peak_graph_arcs"],
            metrics["total_arcs_added"],
            round(metrics["mean_node_peak_buffer_bytes"]),
            round(metrics["system_peak_buffer_bytes"]),
        )

    ns = [float(s) for s in sizes]
    arc_exp, _ = fit_power_law(ns, [r["peak_graph_arcs"] for r in rows])
    node_buffer_exp, _ = fit_power_law(ns, [r["mean_node_peak_buffer_bytes"] for r in rows])
    system_buffer_exp, _ = fit_power_law(ns, [r["system_peak_buffer_bytes"] for r in rows])

    fits = Table(
        "Fitted growth exponents (y ~ N^k)",
        ["quantity", "exponent k", "paper's expectation"],
    )
    fits.add_row("peak causal-graph arcs", round(arc_exp, 2), "~2 (quadratic)")
    fits.add_row("per-node peak buffer bytes", round(node_buffer_exp, 2), ">=1 (linear)")
    fits.add_row("system peak buffer bytes", round(system_buffer_exp, 2), "~2 (quadratic)")

    checks = {
        "causal-graph arcs grow superlinearly (k > 1.5)": arc_exp > 1.5,
        "per-node buffering grows at least linearly (k > 0.8)": node_buffer_exp > 0.8,
        "system buffering grows ~quadratically (k > 1.6)": system_buffer_exp > 1.6,
    }
    return ExperimentResult(
        experiment_id="E05",
        title="Section 5 — buffering & causal-graph growth with group size",
        tables=[table, fits],
        checks=checks,
        notes=(
            "Per-member traffic is held constant, so total messages scale "
            "with N; arcs per message scale with N as each multicast "
            "references the latest unstable message of every sender — the "
            "mechanism behind the paper's quadratic claim."
        ),
    )
