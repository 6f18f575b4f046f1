"""Observability: metrics registry and JSON export.

One :class:`MetricsRegistry` hangs off every
:class:`~repro.sim.kernel.Simulator` as ``sim.metrics``; the network,
ordering layers and membership protocol register their instruments into it
as they are constructed.  ``repro.experiments run_all
--metrics-out metrics.json`` captures every registry an experiment creates
and writes one aggregated JSON dump — see ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import SCHEMA, aggregate, capture, write_json
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "SCHEMA",
    "aggregate",
    "capture",
    "write_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]
