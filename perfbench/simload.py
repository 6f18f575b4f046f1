"""The two in-sim workloads: schedule-driven multicast streams in virtual time.

``sim-causal-clean`` and ``sim-total-lossy`` push the same kind of stream
(round-robin senders, one multicast per time unit) through two stack specs
that use the shared ``dedup``/``stability`` layers in opposite ways; see
:data:`perfbench.catalogue.WORKLOADS` for why each exists.  The timed region
of a slice is exactly ``Simulator.run(until=horizon)``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from perfbench import catalogue
from perfbench.calibrate import bracketed, percentile, supported_percentile
from perfbench.check import CAUSAL, FIFO, TOTAL, Delivery, check_deliveries
from perfbench.slices import Record, first_per_group
from perfbench.trace import Tracer


@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: stack spec alias (``repro.catocs.stack.DISCIPLINES``)
    spec: str
    members: int
    #: multicasts per slice, one per virtual time unit, senders round-robin
    multicasts: int
    drop_prob: float
    #: the horizon is the last send plus this
    tail: float
    claims: Tuple[str, ...]
    #: pinned seeds pooled for the deterministic metrics
    seed_groups: int


SIZES: Dict[str, SimWorkload] = {
    catalogue.SIM_CLEAN: SimWorkload(
        catalogue.SIM_CLEAN, "causal", 8, 400, 0.0, 200.0, (FIFO, CAUSAL), 5),
    catalogue.SIM_LOSSY: SimWorkload(
        catalogue.SIM_LOSSY, "total-agreed", 8, 200, 0.05, 2000.0, (TOTAL,), 24),
}
#: ``--smoke``: seconds, not minutes; numbers not comparable with full size.
SMOKE_SIZES: Dict[str, SimWorkload] = {
    catalogue.SIM_CLEAN: SimWorkload(
        catalogue.SIM_CLEAN, "causal", 4, 40, 0.0, 200.0, (FIFO, CAUSAL), 2),
    catalogue.SIM_LOSSY: SimWorkload(
        catalogue.SIM_LOSSY, "total-agreed", 4, 30, 0.05, 2000.0, (TOTAL,), 2),
}

FIRST_SEND = 1.0


def build(workload: SimWorkload, seed: int) -> Tuple[Any, Any, Dict[str, Any], Dict[str, list]]:
    """A fresh simulator, network and group with the stream scheduled."""
    from repro.catocs import build_group
    from repro.sim import LinkModel, Network, Simulator

    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=workload.drop_prob))
    pids = [f"p{i}" for i in range(workload.members)]
    logs: Dict[str, list] = {pid: [] for pid in pids}

    def recorder(pid: str):
        add = logs[pid].append
        return lambda sender, payload, msg: add(msg)

    group = build_group(sim, net, pids, ordering=workload.spec, on_deliver=recorder)
    for k in range(workload.multicasts):
        sim.call_at(FIRST_SEND + k, group[pids[k % len(pids)]].multicast, k)
    return sim, net, group, logs


def stamp_of(msg: Any) -> Optional[Dict[str, int]]:
    vc = msg.vc
    return None if vc is None else {pid: vc[pid] for pid in vc}


def stack_counts(group: Dict[str, Any], held_over: float = 0.0) -> Dict[str, Any]:
    """Counters the stack keeps anyway, summed or maxed over members.
    Works for any backend: the members are the same class over UDP.

    A delivery counts as *held* when it sat in the ordering layer for longer
    than ``held_over`` clock units: any time at all in virtual time, where a
    message released by the event that inserted it waits exactly zero.
    """
    members = list(group.values())
    holds = [d for m in members for _, d in m.ordering.hold_log]
    return {
        "deliveries": sum(len(m.delivered) for m in members),
        "multicasts": sum(m.multicasts_sent for m in members),
        "control_sent": sum(m.control_sent for m in members),
        "naks": sum(m.transport.naks_sent for m in members),
        "retransmissions": sum(m.transport.retransmissions for m in members),
        "duplicates": sum(m.transport.duplicates for m in members),
        "gossip_msgs": sum(m.transport.gossip_sent for m in members) * (len(members) - 1),
        "peak_buffered": max(m.transport.peak_buffered for m in members),
        "peak_buffered_bytes": max(m.transport.peak_buffered_bytes for m in members),
        "peak_pending": max(m.ordering.peak_pending for m in members),
        "held": sum(1 for d in holds if d > held_over),
        "hold_time": sum(holds),
    }


def run_slice(workload: SimWorkload, seed: int, tracer: Optional[Tracer] = None) -> Record:
    sim, net, group, logs = build(workload, seed)
    horizon = FIRST_SEND + workload.multicasts - 1 + workload.tail

    def timed() -> None:
        if tracer is None:
            sim.run(until=horizon)
        else:
            with tracer.slice():
                sim.run(until=horizon)

    _, sample = bracketed(timed)

    pids = list(group)
    sent = {pid: len(range(i, workload.multicasts, len(pids))) for i, pid in enumerate(pids)}
    verdict = check_deliveries(
        sent,
        {pid: [Delivery(m.sender, m.seq, stamp_of(m)) for m in log]
         for pid, log in logs.items()},
        workload.claims,
    )
    # Latency from the schedule (payload k was issued at FIRST_SEND + k),
    # not from the stack's own sent_at stamp.
    latencies = sorted(
        record.delivered_at - (FIRST_SEND + record.payload)
        for member in group.values() for record in member.delivered
    )
    counts = stack_counts(group)
    counts.update(
        wire_msgs=net.stats.sent,
        wire_bytes=net.stats.bytes_sent,
        dropped=net.stats.dropped,
        events=sim.events_executed,
        latency_sum=sum(latencies),
    )
    return {"sample": sample, "counts": counts, "latencies": latencies,
            "verdict": verdict.as_dict()}


def pooled(records: Sequence[Record], groups: int) -> Dict[str, Any]:
    """Deterministic metrics over one slice of each of the first ``groups``
    seed groups, the pinned ones."""
    pool = first_per_group(records)[:groups]
    total: Dict[str, float] = {}
    for record in pool:
        for key, value in record["counts"].items():
            total[key] = total.get(key, 0) + value
    deliveries = total["deliveries"]
    # The median is read off every group's deliveries pooled.  The tail is
    # read per slice (pooled over its members) and the median taken over
    # seed groups, because the tail of everything pooled is set by the one
    # or two seeds with the worst stalls.  p99 at full size; a --smoke
    # slice supports only a lower percentile.
    latencies = sorted(x for r in pool for x in r["latencies"])
    tail_samples = min(len(r["latencies"]) for r in pool)
    tail = supported_percentile(tail_samples, 99)
    return {
        "groups": len(pool),
        "totals": total,
        "deliveries": deliveries,
        "wire_msgs_per_delivery": total["wire_msgs"] / deliveries,
        "wire_bytes_per_delivery": total["wire_bytes"] / deliveries,
        "sim_latency_p50": percentile(latencies, 50),
        "sim_latency_p99": statistics.median(percentile(r["latencies"], tail) for r in pool),
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail,
        "latency_tail_samples": tail_samples,
        "peak_buffered_msgs": total["peak_buffered"] / len(pool),
        "peak_buffered_bytes": max(r["counts"]["peak_buffered_bytes"] for r in pool),
        "peak_pending": max(r["counts"]["peak_pending"] for r in pool),
    }
