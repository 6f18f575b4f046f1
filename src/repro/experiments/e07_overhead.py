"""E07 — Sections 3.4/5: per-message ordering overhead.

"CATOCS imposes overhead on every message transmission and reception —
ordering information is added each transmission and checked on each
reception."  Two costs, measured directly:

1. **Header bytes**: the vector clock piggybacked on each causal multicast
   grows linearly with group size (plus the stability ack vector).
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
from repro.sim.network import estimate_size


def _measure(seed: int, ordering: str, size: int, msgs_per_member: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    pids = [f"p{i:02d}" for i in range(size)]
    members = build_group(sim, net, pids, ordering=ordering, ack_period=0.0)

    header_samples = []
    original_deliver = {}

    def sniff(pid):
        def cb(src, payload, msg: DataMessage) -> None:
            header_samples.append(msg.size_bytes() - estimate_size(msg.payload))
        return cb

    for pid, member in members.items():
        member.on_deliver = sniff(pid)

    payload = {"kind": "tick", "data": "x" * 16}
    total_multicasts = 0
    for index, pid in enumerate(pids):
        for k in range(msgs_per_member):
            sim.call_at(1.0 + k * 25.0 + index * 2.0, members[pid].multicast, dict(payload))
            total_multicasts += 1
    sim.run(until=msgs_per_member * 25.0 + 2000.0)

    batch_saved = sum(
        m.stack.layer("batch").messages_saved()
        for m in members.values() if m.stack.layer("batch") is not None
    )
    return {
        "header_bytes": mean(header_samples),
        "net_msgs": net.stats.sent,
        "net_msgs_per_multicast": net.stats.sent / total_multicasts,
        "bytes_per_multicast": net.stats.bytes_sent / total_multicasts,
        "batch_saved": batch_saved,
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
    full: Dict[tuple, Dict[str, float]] = {}
    for size in sizes:
        row = [size]
        causal = _measure(seed, "causal", size, msgs_per_member)
        headers[size] = causal["header_bytes"]
        for ordering in ("raw", "causal", "total-seq", "total-agreed"):
            if ordering == "causal":
                metrics = causal
            else:
                metrics = _measure(seed, ordering, size, msgs_per_member)
            per_mcast[(size, ordering)] = metrics["net_msgs_per_multicast"]
            full[(size, ordering)] = metrics
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

    # Extras-only rerun at the largest N on the batching stack: how much of
    # each discipline's per-multicast message overhead same-tick coalescing
    # recovers.  Loss-free causal has no same-tick same-destination traffic
    # (saved == 0, the quiet path is untouched); the total orders' token /
    # proposal / commit rounds coalesce with the data they ride alongside.
    batching: Dict[str, Dict[str, float]] = {}
    for ordering in ("causal", "total-seq", "total-agreed"):
        batched = _measure(seed, f"dedup|batch|stability|{ordering}", biggest,
                           msgs_per_member)
        plain = full[(biggest, ordering)]
        batching[ordering] = {
            "net_msgs_plain": plain["net_msgs"],
            "net_msgs_batched": batched["net_msgs"],
            "net_msgs_saved": plain["net_msgs"] - batched["net_msgs"],
            "layer_messages_saved": batched["batch_saved"],
            "net_msgs_per_multicast_plain": plain["net_msgs_per_multicast"],
            "net_msgs_per_multicast_batched": batched["net_msgs_per_multicast"],
        }
    extras = {"batching": {"size": biggest, "per_ordering": batching}}
    return ExperimentResult(
        experiment_id="E07",
        title="Sections 3.4/5 — per-message ordering overhead",
        tables=[header_table, fits],
        checks=checks,
        notes=(
            "Headers: vector clock + piggybacked ack vector, both one entry "
            "per member.  Message counts: the control traffic each ordering "
            "discipline adds on top of the N-1 data sends."
        ),
        extras=extras,
    )
