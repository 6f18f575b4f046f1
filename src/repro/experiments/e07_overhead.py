"""E07 — Sections 3.4/5: per-message ordering overhead.

"CATOCS imposes overhead on every message transmission and reception —
ordering information is added each transmission and checked on each
reception."  Two costs, measured directly:

1. **Header bytes**: the vector clock piggybacked on each causal multicast
   grows linearly with group size, plus the stability ack counts the clock
   does not already carry.  The fixed 24-byte envelope every message has,
   ordered or not, is not ordering metadata and is not counted.
2. **Network messages per application multicast**: raw/FIFO/causal cost
   N-1 sends; sequencer total order adds an order token per message;
   agreed total order adds a proposal round plus a commit fan-out.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.catocs import build_group
from repro.catocs.messages import DataMessage
from repro.experiments.harness import ExperimentResult, Table, fit_power_law, mean
from repro.sim import LinkModel, Network, Simulator
from repro.sim.network import counts_size


def _measure(seed: int, ordering: str, size: int, msgs_per_member: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = [f"p{i:02d}" for i in range(size)]
    members = build_group(sim, net, pids, ordering=ordering, ack_period=0.0)

    header_samples = []

    def sniff(src, payload, msg: DataMessage) -> None:
        vc, acks = msg.vc, msg.ack_vector
        header_samples.append((0 if vc is None else vc.size_bytes())
                              + (0 if acks is None else counts_size(acks)))

    for member in members.values():
        member.on_deliver = sniff

    payload = {"kind": "tick", "data": "x" * 16}
    total_multicasts = 0
    for index, pid in enumerate(pids):
        for k in range(msgs_per_member):
            sim.call_at(1.0 + k * 25.0 + index * 2.0, members[pid].multicast, dict(payload))
            total_multicasts += 1
    sim.run(until=msgs_per_member * 25.0 + 2000.0)

    return {
        "header_bytes": mean(header_samples),
        "net_msgs_per_multicast": net.stats.sent / total_multicasts,
    }


def run_e07(
    seed: int = 0,
    sizes: Sequence[int] = (3, 6, 12, 24),
    msgs_per_member: int = 6,
) -> ExperimentResult:
    header_table = Table(
        "Ordering-metadata bytes per message vs group size (causal)",
        ["N", "header bytes/msg", "net msgs per multicast (raw)",
         "net msgs per multicast (causal)", "net msgs per multicast (total-seq)",
         "net msgs per multicast (total-agreed)"],
    )
    headers: Dict[int, float] = {}
    per_mcast: Dict[tuple, float] = {}
    for size in sizes:
        causal = _measure(seed, "causal", size, msgs_per_member)
        headers[size] = causal["header_bytes"]
        for ordering in ("raw", "causal", "total-seq", "total-agreed"):
            if ordering == "causal":
                metrics = causal
            else:
                metrics = _measure(seed, ordering, size, msgs_per_member)
            per_mcast[(size, ordering)] = metrics["net_msgs_per_multicast"]
        header_table.add_row(
            size,
            round(causal["header_bytes"], 1),
            round(per_mcast[(size, "raw")], 2),
            round(per_mcast[(size, "causal")], 2),
            round(per_mcast[(size, "total-seq")], 2),
            round(per_mcast[(size, "total-agreed")], 2),
        )

    header_exp, _ = fit_power_law(
        [float(s) for s in sizes], [headers[s] for s in sizes]
    )
    biggest = sizes[-1]
    checks = {
        "causal header bytes grow ~linearly with N (0.8 < k < 1.3)": 0.8 < header_exp < 1.3,
        "raw costs ~N-1 msgs per multicast": abs(
            per_mcast[(biggest, "raw")] - (biggest - 1)
        ) < 0.6,
        "total-agreed costs ~3(N-1) msgs per multicast": abs(
            per_mcast[(biggest, "total-agreed")] - 3 * (biggest - 1)
        ) < 0.6,
        "total-seq costs ~2x raw": per_mcast[(biggest, "total-seq")]
        > 1.6 * per_mcast[(biggest, "raw")],
        "total-agreed costs ~3x raw": per_mcast[(biggest, "total-agreed")]
        > 2.4 * per_mcast[(biggest, "raw")],
    }
    fits = Table("Fitted growth", ["quantity", "exponent k"])
    fits.add_row("causal header bytes vs N", round(header_exp, 2))

    return ExperimentResult(
        experiment_id="E07",
        title="Sections 3.4/5 — per-message ordering overhead",
        tables=[header_table, fits],
        checks=checks,
        notes=(
            "Headers: vector clock (one entry per member) + the piggybacked "
            "ack counts it does not carry (none loss-free); the fixed "
            "envelope is not counted.  Message counts: the control traffic "
            "each ordering discipline adds on top of the N-1 data sends."
        ),
    )
