"""The names every later performance issue uses: workloads and metrics.

``BENCHMARK.json`` at the repository root is this module written out
(``perfbench/tests/test_catalogue.py`` keeps them equal).  The driver that
gates later PRs wants *every* end-to-end metric from *every* workload and
never a zero, while the stack's metrics are not all meaningful everywhere
(the suite makes no countable deliveries; UDP has no virtual time).
:data:`NATIVE` records where a metric means what its name says; elsewhere
the cell holds a documented stand-in (see ``stand_in`` in
:mod:`perfbench.runner` and the README's cell table) that gates nothing new.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from perfbench.trace import LAYERS

#: Seconds one measuring run lasts (``--seconds`` default; the driver's
#: ``run_seconds``).
RUN_SECONDS = 20


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which it may worsen; None per layer
    bound: float | None = None


SIM_CLEAN = "sim-causal-clean"
SIM_LOSSY = "sim-total-lossy"
UDP = "udp-causal-loopback"
SUITE = "suite-seq"

WORKLOADS: Tuple[Workload, ...] = (
    Workload(SIM_CLEAN,
             "loss-free causal fast path in-sim: clocks, message sizing and the "
             "network model do the work, repair and ordering control do none"),
    Workload(SIM_LOSSY,
             "agreed total order under 5% loss in-sim: NAK repair, retransmission "
             "and proposal/commit control dominate, clocks are minor"),
    Workload(UDP,
             "causal group over real loopback UDP sockets: codec, sendto/recvfrom and "
             "loop dispatch do the work; serial vs pipelined closed loops"),
    Workload(SUITE,
             "the E01-E19 experiment suite in order, the product users run and the "
             "only workload reaching apps, txn, detect, statelevel, dsm, membership"),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)

_SIM = frozenset({SIM_CLEAN, SIM_LOSSY})
_STACK = frozenset({SIM_CLEAN, SIM_LOSSY, UDP})
_ALL = frozenset(WORKLOAD_NAMES)

# The issue's bounds: 10% on calibrated host time, 2% on what is exact for
# the pinned seeds.  The one exception is the UDP serial phase, whose ten-run
# spread reached 10.2% on this host; the README tabulates the spreads.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cal_us_per_delivery", "us", "lower", 0.10),
    Metric("serial_cal_us_per_multicast", "us", "lower", 0.20),
    Metric("suite_cal_s", "s", "lower", 0.10),
    Metric("wire_msgs_per_delivery", "count", "lower", 0.02),
    Metric("wire_bytes_per_delivery", "bytes", "lower", 0.02),
    Metric("sim_latency_p50", "vtu", "lower", 0.02),
    Metric("sim_latency_p99", "vtu", "lower", 0.02),
    Metric("peak_buffered_msgs", "count", "lower", 0.02),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: metric -> workloads on which it means what its name says.
NATIVE: Dict[str, FrozenSet[str]] = {
    "setup_s": _ALL,
    "cal_us_per_delivery": _STACK,
    "serial_cal_us_per_multicast": frozenset({UDP}),
    "suite_cal_s": frozenset({SUITE}),
    "wire_msgs_per_delivery": _STACK,
    "wire_bytes_per_delivery": _STACK,
    "sim_latency_p50": _SIM,
    "sim_latency_p99": _SIM,
    "peak_buffered_msgs": _SIM,
    "peak_rss_mb": _ALL,
}

EXPERIMENTS: Tuple[str, ...] = tuple(f"E{i:02d}" for i in range(1, 20))


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_us_per_delivery", "us", "lower"))
        out.append(Metric(f"{layer}.calls_per_delivery", "count", "lower"))
    out += [
        Metric("catocs.dedup.naks_per_kdelivery", "count", "lower"),
        Metric("catocs.dedup.retransmits_per_nak", "count", "lower"),
        Metric("catocs.dedup.duplicate_share", "share", "lower"),
        Metric("catocs.stability.gossip_per_delivery", "count", "lower"),
        Metric("catocs.stability.peak_buffered_bytes", "bytes", "lower"),
        Metric("catocs.ordering.held_share", "share", "lower"),
        Metric("catocs.ordering.hold_time_mean", "clock", "lower"),
        Metric("catocs.ordering.control_per_delivery", "count", "lower"),
        Metric("catocs.ordering.peak_pending", "count", "lower"),
        Metric("sim.kernel.events_per_delivery", "count", "lower"),
        Metric("sim.kernel.cal_events_per_s", "1/s", "higher"),
        Metric("sim.network.dropped_share", "share", "lower"),
        Metric("runtime.codec.encode_us_per_dgram", "us", "lower"),
        Metric("runtime.codec.decode_us_per_dgram", "us", "lower"),
        Metric("runtime.codec.bytes_per_dgram", "bytes", "lower"),
        Metric("runtime.udp.sendto_us_per_dgram", "us", "lower"),
        Metric("runtime.udp.decode_errors", "count", "lower"),
        Metric("runtime.udp.paced_latency_p50_us", "us", "lower"),
        Metric("runtime.udp.paced_latency_p99_us", "us", "lower"),
        Metric("runtime.udp.paced_late_p99_us", "us", "lower"),
        Metric("runtime.udp.ladder_max_rate", "1/s", "higher"),
        Metric("runtime.asyncio_rt.loop_residual_share", "share", "lower"),
    ]
    out += [Metric(f"experiments.{name}.cal_s", "s", "lower") for name in EXPERIMENTS]
    out += [
        Metric("harness.spin_ms", "ms", "lower"),
        Metric("harness.slice_iqr_share", "share", "lower"),
        Metric("harness.raw_us_per_delivery", "us", "lower"),
        Metric("harness.raw_wall_s", "s", "lower"),
        Metric("harness.tracing_overhead_share", "share", "lower"),
        Metric("harness.span_coverage_share", "share", "higher"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
