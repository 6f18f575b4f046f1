"""What runs inside one child interpreter: set up, then measure or trace.

Every workload runs in a process of its own (clean GC state and RSS, never
two at once, one thread each: the host has two vCPUs).  A child prints one
JSON object on its last stdout line; :mod:`perfbench.runner` assembles
those into metrics.  ``repro`` is imported only inside :func:`setup`, so its
import cost is part of ``setup_s`` and of nothing else.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench import catalogue, simload, suiteload, udpload
from perfbench.calibrate import bracketed, iqr_share
from perfbench.slices import Record, run_slices, slice_seeds
from perfbench.trace import LAYERS, TraceSummary, traced

#: A traced pass re-runs this many slices (two when ``--smoke``).
TRACED_SLICES = 5
#: Share of a ``--trace 1`` run spent on the untraced reference slices.
REFERENCE_SHARE = 0.6


def setup(workload: str, seed: int, smoke: bool) -> Dict[str, float]:
    """Everything a user waits for before the first multicast: importing the
    program, building a group, binding sockets (UDP) or importing the
    nineteen experiment modules (suite).  Bracketed like any slice."""

    def once() -> None:
        if workload in simload.SIZES:
            simload.build(_sim_sizes(workload, smoke), seed)
        elif workload == catalogue.UDP:
            asyncio.run(_bind_and_close(seed))
        else:
            from repro.experiments.run_all import prewarm_registry

            prewarm_registry()

    _, sample = bracketed(once)
    return sample


async def _bind_and_close(seed: int) -> None:
    group = udpload._Group(seed)
    try:
        await group.net.start()
    finally:
        group.net.close()


def _sim_sizes(workload: str, smoke: bool) -> simload.SimWorkload:
    return (simload.SMOKE_SIZES if smoke else simload.SIZES)[workload]


def _udp_sizes(smoke: bool) -> udpload.UdpSizes:
    return udpload.SMOKE_SIZES if smoke else udpload.SIZES


def _settle() -> None:
    """Start measuring from a clean heap: collect, then move everything
    that survived (the imported program) out of the collector's reach."""
    gc.collect()
    gc.freeze()


def _verdict_sum(verdicts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    reasons: Dict[str, int] = {}
    for verdict in verdicts:
        for reason, count in verdict["reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    return {
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "reasons": reasons,
    }


def _slim(record: Record) -> Record:
    """A slice record without its bulky per-delivery samples."""
    return {k: v for k, v in record.items() if k != "latencies"}


def _host_time(records: Sequence[Record], per: Callable[[Record], int]) -> Dict[str, Any]:
    """Median calibrated and raw microseconds per unit, with the spread."""
    cal = [r["sample"]["cal_s"] / per(r) * 1e6 for r in records]
    raw = [r["sample"]["raw_s"] / per(r) * 1e6 for r in records]
    spins = [s for r in records
             for s in (r["sample"]["spin_before_s"], r["sample"]["spin_after_s"])]
    return {
        "cal_us": statistics.median(cal),
        "raw_us": statistics.median(raw),
        "iqr_share": iqr_share(cal),
        "slices": len(records),
        "cal_slice_s": statistics.median(r["sample"]["cal_s"] for r in records),
        "spin_ms": statistics.median(spins) * 1e3,
    }


def _deliveries(record: Record) -> int:
    return record["counts"]["deliveries"]


# -- sim -------------------------------------------------------------------------------


def _sim_measure(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    sizes = _sim_sizes(workload, smoke)
    seeds = slice_seeds(seed, sizes.seed_groups)
    simload.run_slice(sizes, seeds[0])  # untimed warm-up
    records = run_slices(lambda s: simload.run_slice(sizes, s), seeds, seconds,
                         deterministic=True)
    return _sim_result(sizes, records)


def _sim_result(sizes: simload.SimWorkload, records: List[Record]) -> Dict[str, Any]:
    pool = simload.pooled(records, sizes.seed_groups)
    host = _host_time(records, _deliveries)
    return {
        "native": {
            "cal_us_per_delivery": host["cal_us"],
            "wire_msgs_per_delivery": pool["wire_msgs_per_delivery"],
            "wire_bytes_per_delivery": pool["wire_bytes_per_delivery"],
            "sim_latency_p50": pool["sim_latency_p50"],
            "sim_latency_p99": pool["sim_latency_p99"],
            "peak_buffered_msgs": pool["peak_buffered_msgs"],
        },
        "unit_cal_s": host["cal_slice_s"],
        "unit_multicasts": sizes.multicasts,
        "verdict": _verdict_sum([r["verdict"] for r in records]),
        "host": host,
        "pool": pool,
        "slices": [_slim(r) for r in records],
    }


def _sim_trace(workload: str, seed: int, seconds: float, smoke: bool,
               trace_out: Optional[str]) -> Dict[str, Any]:
    sizes = _sim_sizes(workload, smoke)
    seeds = slice_seeds(seed, sizes.seed_groups)
    simload.run_slice(sizes, seeds[0])
    reference = run_slices(lambda s: simload.run_slice(sizes, s), seeds,
                           seconds * REFERENCE_SHARE, deterministic=True)
    result = _sim_result(sizes, reference)
    traced_n = 2 if smoke else TRACED_SLICES

    with traced() as tracer:
        simload.run_slice(sizes, seeds[0])  # warm the wrappers, unrecorded
        records = run_slices(lambda s: simload.run_slice(sizes, s, tracer),
                             seeds[:traced_n], seconds * (1 - REFERENCE_SHARE),
                             min_slices=traced_n)
    overhead = _host_time(records, _deliveries)["cal_us"] / result["host"]["cal_us"] - 1
    if trace_out:
        tracer.dump(trace_out)
    summary = tracer.summary()
    pool = result["pool"]
    totals = pool["totals"]
    deliveries = pool["deliveries"]
    remote = deliveries - totals["multicasts"]
    cal_us = result["host"]["cal_us"]
    layers = _layer_metrics(summary, cal_us, sum(_deliveries(r) for r in records))
    layers.update({
        **_stack_counters(totals, deliveries, remote, pool),
        "sim.kernel.events_per_delivery": totals["events"] / deliveries,
        "sim.kernel.cal_events_per_s": (totals["events"] / deliveries) / (cal_us * 1e-6),
        "sim.network.dropped_share": totals["dropped"] / totals["wire_msgs"],
        **_harness_metrics(result["host"], summary, overhead),
    })
    result.update(per_layer=layers,
                  verdict=_verdict_sum([result["verdict"]] + [r["verdict"] for r in records]),
                  traced_slices=[_slim(r) for r in records],
                  span_names=_span_table(summary))
    return result


# -- shared per-layer arithmetic -------------------------------------------------------


def _layer_metrics(summary: TraceSummary, cal_us: float, deliveries: int) -> Dict[str, float]:
    """``L.self_us_per_delivery`` is the layer's share of traced self time
    applied to the *untraced* cost of a delivery."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_delivery"] = summary.self_share(layer) * cal_us
        out[f"{layer}.calls_per_delivery"] = summary.calls(layer) / deliveries
    return out


def _stack_counters(totals: Dict[str, float], deliveries: float, remote: float,
                    pool: Dict[str, Any]) -> Dict[str, float]:
    naks = totals["naks"]
    arrivals = remote + totals["duplicates"]
    return {
        "catocs.dedup.naks_per_kdelivery": naks / deliveries * 1e3,
        "catocs.dedup.retransmits_per_nak": totals["retransmissions"] / naks if naks else 0.0,
        "catocs.dedup.duplicate_share": totals["duplicates"] / arrivals if arrivals else 0.0,
        "catocs.stability.gossip_per_delivery": totals["gossip_msgs"] / deliveries,
        "catocs.stability.peak_buffered_bytes": pool["peak_buffered_bytes"],
        "catocs.ordering.held_share": totals["held"] / deliveries,
        "catocs.ordering.hold_time_mean": totals["hold_time"] / deliveries,
        "catocs.ordering.control_per_delivery": totals["control_sent"] / deliveries,
        "catocs.ordering.peak_pending": pool["peak_pending"],
    }


def _harness_metrics(host: Dict[str, Any], summary: TraceSummary,
                     overhead: float) -> Dict[str, float]:
    return {
        "harness.spin_ms": host["spin_ms"],
        "harness.slice_iqr_share": host["iqr_share"],
        "harness.raw_us_per_delivery": host["raw_us"],
        "harness.tracing_overhead_share": overhead,
        "harness.span_coverage_share":
            summary.covered_s / summary.wall_s if summary.wall_s else 0.0,
    }


def _span_table(summary: TraceSummary) -> Dict[str, List[float]]:
    """span name -> [calls, inclusive s, self s], for the ``--out`` file."""
    return {name: list(entry) for name, entry in sorted(summary.by_name.items())}


# -- udp -------------------------------------------------------------------------------


def _udp_pool(records: Sequence[Record]) -> Dict[str, Any]:
    phases = [r[phase] for r in records for phase in ("serial", "pipelined")]
    totals: Dict[str, float] = {}
    for phase in phases:
        for key, value in phase["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return {
        "totals": totals,
        "deliveries": totals["deliveries"],
        "peak_buffered_bytes": max(p["counts"]["peak_buffered_bytes"] for p in phases),
        "peak_pending": max(p["counts"]["peak_pending"] for p in phases),
    }


def _udp_result(sizes: udpload.UdpSizes, records: List[Record]) -> Dict[str, Any]:
    serial = _host_time([r["serial"] for r in records], lambda r: sizes.multicasts)
    pipelined = _host_time([r["pipelined"] for r in records], _deliveries)
    pool = _udp_pool(records)
    totals = pool["totals"]
    return {
        "native": {
            "cal_us_per_delivery": pipelined["cal_us"],
            "serial_cal_us_per_multicast": serial["cal_us"],
            "wire_msgs_per_delivery": totals["wire_msgs"] / pool["deliveries"],
            "wire_bytes_per_delivery": totals["wire_bytes"] / pool["deliveries"],
        },
        "unit_cal_s": serial["cal_slice_s"] + pipelined["cal_slice_s"],
        "unit_multicasts": 2 * sizes.multicasts,
        "verdict": _verdict_sum([r[p]["verdict"] for r in records
                                 for p in ("serial", "pipelined")]),
        "decode_errors": totals["decode_errors"],
        "host": pipelined,
        "host_serial": serial,
        "pool": pool,
        "slices": records,
    }


def _udp_measure(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    sizes = _udp_sizes(smoke)
    udpload.closed_slice(sizes, seed)  # untimed warm-up
    records = run_slices(lambda s: udpload.closed_slice(sizes, s), [seed], seconds,
                         min_slices=2 if smoke else 5)
    return _udp_result(sizes, records)


def _udp_trace(seed: int, seconds: float, smoke: bool,
               trace_out: Optional[str]) -> Dict[str, Any]:
    """Closed-loop reference and traced slices get a quarter of the budget
    each; the open-loop diagnostics take what they take.  Being bimodal
    near capacity, they are judged in their own fields (``paced.verdicts``,
    ``ladder.rungs``) and do not count towards ``failed_share``."""
    sizes = _udp_sizes(smoke)
    traced_n = 2 if smoke else TRACED_SLICES
    udpload.closed_slice(sizes, seed)
    reference = run_slices(lambda s: udpload.closed_slice(sizes, s), [seed],
                           seconds * 0.25, min_slices=traced_n)
    result = _udp_result(sizes, reference)
    with traced() as tracer:
        udpload.closed_slice(sizes, seed)
        records = run_slices(lambda s: udpload.closed_slice(sizes, s, tracer), [seed],
                             seconds * 0.25, min_slices=traced_n)
    if trace_out:
        tracer.dump(trace_out)
    summary = tracer.summary()
    traced_result = _udp_result(sizes, records)
    cal_us = result["host"]["cal_us"]
    overhead = traced_result["host"]["cal_us"] / cal_us - 1
    pool = result["pool"]
    totals = pool["totals"]
    deliveries = pool["deliveries"]
    paced = udpload.paced(sizes, seed)
    ladder = udpload.ladder(sizes, seed)
    spin_scale = result["host"]["spin_ms"] / traced_result["host"]["spin_ms"]

    def span_us(name: str) -> float:
        calls, inclusive, _ = summary.by_name.get(name, (0, 0.0, 0.0))
        return inclusive / calls * 1e6 * spin_scale if calls else 0.0

    layers = _layer_metrics(summary, cal_us, traced_result["pool"]["deliveries"])
    layers.update({
        **_stack_counters(totals, deliveries, deliveries - totals["multicasts"], pool),
        "runtime.codec.encode_us_per_dgram": span_us("codec.encode_datagram"),
        "runtime.codec.decode_us_per_dgram": span_us("codec.decode_datagram"),
        "runtime.codec.bytes_per_dgram": totals["wire_bytes"] / totals["wire_msgs"],
        "runtime.udp.sendto_us_per_dgram": span_us("_SelectorDatagramTransport.sendto"),
        "runtime.udp.decode_errors": totals["decode_errors"] + paced["decode_errors"],
        "runtime.udp.paced_latency_p50_us": paced["latency_p50_us"],
        "runtime.udp.paced_latency_p99_us": paced["latency_tail_us"],
        "runtime.udp.paced_late_p99_us": paced["late_tail_us"],
        "runtime.udp.ladder_max_rate": ladder["max_rate"],
        "runtime.asyncio_rt.loop_residual_share":
            summary.residual_s / summary.wall_s if summary.wall_s else 0.0,
        **_harness_metrics(result["host"], summary, overhead),
    })
    result.update(per_layer=layers, paced=paced, ladder=ladder,
                  verdict=_verdict_sum([result["verdict"], traced_result["verdict"]]),
                  decode_errors=layers["runtime.udp.decode_errors"],
                  traced_slices=records, span_names=_span_table(summary))
    return result


# -- suite -----------------------------------------------------------------------------


def _suite_run(smoke: bool) -> Dict[str, Any]:
    names = suiteload.SMOKE_EXPERIMENTS if smoke else catalogue.EXPERIMENTS
    outcome = suiteload.run_pass(names)
    per_layer = {f"experiments.{e['name']}.cal_s": e["sample"]["cal_s"]
                 for e in outcome["experiments"]}
    spins = [s for e in outcome["experiments"]
             for s in (e["sample"]["spin_before_s"], e["sample"]["spin_after_s"])]
    per_layer["harness.spin_ms"] = statistics.median(spins) * 1e3
    return {
        "native": {"suite_cal_s": outcome["suite_cal_s"]},
        "unit_cal_s": outcome["suite_cal_s"],
        "unit_experiments": len(names),
        "verdict": outcome["verdict"],
        "report_sha256": outcome["report_sha256"],
        "per_layer": per_layer,
        "host": {"raw_wall_s": outcome["raw_wall_s"]},
        "slices": outcome["experiments"],
    }


# -- entry -----------------------------------------------------------------------------


def run(kind: str, workload: str, seed: int, seconds: float, smoke: bool,
        trace_out: Optional[str]) -> Dict[str, Any]:
    """``kind`` is ``setup`` (set up and stop), ``measure`` or ``trace``."""
    started = time.perf_counter()
    result: Dict[str, Any] = {"workload": workload, "kind": kind,
                              "setup": setup(workload, seed, smoke)}
    if kind != "setup":
        _settle()
        if workload in simload.SIZES:
            body = (_sim_measure(workload, seed, seconds, smoke) if kind == "measure"
                    else _sim_trace(workload, seed, seconds, smoke, trace_out))
        elif workload == catalogue.UDP:
            body = (_udp_measure(seed, seconds, smoke) if kind == "measure"
                    else _udp_trace(seed, seconds, smoke, trace_out))
        else:
            body = _suite_run(smoke)
        result.update(body)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv: Sequence[str]) -> int:
    kind, workload, seed, seconds, smoke, trace_out = argv
    result = run(kind, workload, int(seed), float(seconds), smoke == "1", trace_out or None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
