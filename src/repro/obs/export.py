"""Collecting and exporting metrics as JSON.

The experiment runner cannot see the simulators an experiment constructs
internally, so collection is ambient: :func:`capture` installs a sink that
every :class:`~repro.obs.metrics.MetricsRegistry` created inside the ``with``
block announces itself to.  The collected registries are then aggregated
(:func:`aggregate`) into one summary per experiment and written with
:func:`write_json`.

Aggregation rules across registries (an experiment may run many simulators,
e.g. one per group size):

- **counters** sum;
- **gauges** are summarised as ``{sum, min, max, mean, n}`` — some gauges are
  surfaced totals (events executed) where the sum is meaningful, others are
  instantaneous ratios where only the spread is;
- **histograms** merge: counts/sums add, min/max combine, same-label buckets
  add pointwise.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List

from repro.obs.metrics import MetricsRegistry, _capture_sinks

#: Version tag written into every metrics dump.
SCHEMA = "repro.obs/v1"

#: Metric-name prefixes grouped into top-level families in the dump, so a
#: consumer can ask "the kernel metrics of E05" without string-splitting.
FAMILIES = ("kernel", "net", "ordering", "membership")


@contextmanager
def capture() -> Iterator[List[MetricsRegistry]]:
    """Collect every registry constructed while the context is active.

    The sink holds each registry until the context closes, and a registry's
    callback gauges close over the simulator and members they read, so
    every simulation built inside the block stays alive until then: open
    it only when the metrics will be read (the experiment runner does so
    only for ``--metrics-out``)."""
    sink: List[MetricsRegistry] = []
    _capture_sinks.append(sink)
    try:
        yield sink
    finally:
        _capture_sinks.remove(sink)


def _merge_histogram(into: Dict[str, Any], snap: Dict[str, Any]) -> None:
    if snap["count"]:
        if into["count"]:
            into["min"] = min(into["min"], snap["min"])
            into["max"] = max(into["max"], snap["max"])
        else:
            into["min"] = snap["min"]
            into["max"] = snap["max"]
    into["count"] += snap["count"]
    into["sum"] += snap["sum"]
    into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0
    buckets = into["buckets"]
    for edge, n in snap["buckets"].items():
        buckets[edge] = buckets.get(edge, 0) + n


def aggregate(registries: Iterable[MetricsRegistry]) -> Dict[str, Any]:
    """Merge many registries into one family-grouped summary dict."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    n_registries = 0
    for registry in registries:
        n_registries += 1
        snap = registry.snapshot()
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snap["gauges"].items():
            box = gauges.get(key)
            if box is None:
                gauges[key] = {"sum": value, "min": value, "max": value, "n": 1}
            else:
                box["sum"] += value
                box["min"] = min(box["min"], value)
                box["max"] = max(box["max"], value)
                box["n"] += 1
        for key, value in snap["histograms"].items():
            if key not in histograms:
                histograms[key] = json.loads(json.dumps(value))  # deep copy
            else:
                _merge_histogram(histograms[key], value)
    for box in gauges.values():
        box["mean"] = box["sum"] / box["n"]

    def family_of(series: str) -> str:
        prefix = series.split(".", 1)[0]
        return prefix if prefix in FAMILIES else "other"

    out: Dict[str, Any] = {"registries": n_registries}
    for family in FAMILIES + ("other",):
        out[family] = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in sorted(counters.items()):
        out[family_of(key)]["counters"][key] = value
    for key, value in sorted(gauges.items()):
        out[family_of(key)]["gauges"][key] = value
    for key, value in sorted(histograms.items()):
        out[family_of(key)]["histograms"][key] = value
    return out


def write_json(path: str, experiments: Dict[str, Dict[str, Any]]) -> None:
    """Write a metrics dump covering one or more experiments."""
    payload = {"schema": SCHEMA, "experiments": experiments}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
