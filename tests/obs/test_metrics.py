"""Unit tests for the metric primitives and the registry."""

from repro.obs import MetricsRegistry
from repro.obs.metrics import _series_key


def test_series_key_is_canonical():
    assert _series_key("x", {}) == "x"
    assert _series_key("x", {"b": "2", "a": "1"}) == "x{a=1,b=2}"


def test_counter_increments():
    reg = MetricsRegistry("t")
    c = reg.counter("hits", pid="a")
    c.inc()
    c.inc(3)
    assert c.value == 4


def test_registry_memoizes_by_name_and_labels():
    reg = MetricsRegistry("t")
    assert reg.counter("hits", pid="a") is reg.counter("hits", pid="a")
    assert reg.counter("hits", pid="a") is not reg.counter("hits", pid="b")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_gauge_set_and_callback():
    reg = MetricsRegistry("t")
    g = reg.gauge("depth")
    g.set(5.0)
    assert g.value == 5.0
    state = {"n": 0}
    reg.gauge_fn("depth", lambda: state["n"])  # rebinding replaces the source
    state["n"] = 9
    assert g.value == 9
    g.set(1.0)  # explicit set unbinds the callback again
    state["n"] = 100
    assert g.value == 1.0


def test_histogram_buckets_and_exact_stats():
    reg = MetricsRegistry("t")
    h = reg.histogram("lat", bounds=(1.0, 10.0))
    for v in (0.5, 1.0, 2.0, 50.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 53.5
    assert snap["min"] == 0.5
    assert snap["max"] == 50.0
    # bounds are inclusive upper edges; 50 overflows into +inf
    assert snap["buckets"] == {"<=1": 2, "<=10": 1, "+inf": 1}


def test_empty_histogram_snapshot_has_finite_min_max():
    snap = MetricsRegistry("t").histogram("lat").snapshot()
    assert snap["count"] == 0
    assert snap["min"] == 0.0 and snap["max"] == 0.0


def test_size_bucket_defaults_apply():
    reg = MetricsRegistry("t")
    h = reg.histogram("bytes", bounds=(8, 16, 32, 64, 128, 256, 512, 1024))
    h.observe(100)
    assert h.snapshot()["buckets"]["<=128"] == 1


def test_registry_snapshot_shape():
    reg = MetricsRegistry("sub")
    reg.counter("c").inc()
    reg.gauge("g").set(2.0)
    reg.histogram("h").observe(1.0)
    snap = reg.snapshot()
    assert snap["registry"] == "sub"
    assert snap["counters"] == {"c": 1}
    assert snap["gauges"] == {"g": 2.0}
    assert snap["histograms"]["h"]["count"] == 1
