"""The delivery oracle: one hand-built history per verdict reason, flagged
where the spec claims the broken promise and passed where it does not."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catocs.stack import DISCIPLINES, ORDER_FIFO, ORDER_NAMES, guarantee
from repro.check import Fault, judge
from repro.sim import EventTrace
from tests.catocs.test_causal_property import run_workload

# p0 sends a; p1 delivers a, then sends b, so a happens-before b; p2 sends c.
CAUSED = "p0>a p0<a p1<a p1>b p1<b p2>c p2<c "


def assert_judged(members, spec, multicasts):
    """All ``multicasts`` were sent (none stayed queued behind a view
    change), and the oracle finds no fault at the members still alive."""
    assert sum(m.multicasts_sent for m in members.values()) == multicasts
    trace = next(iter(members.values())).trace
    verdict = judge(trace, [pid for pid, m in members.items() if m.alive], spec)
    assert verdict.ok, verdict


def history(events):
    """A trace from words ``pid>msg`` (a send) and ``pid<msg`` (a delivery)."""
    trace = EventTrace()
    for time, word in enumerate(events.split()):
        pid, msg = word.replace(">", "<").split("<")
        trace.record(float(time), pid, "send" if ">" in word else "deliver", msg, msg)
    return trace


@pytest.mark.parametrize("events, judged, spec, fault, weaker", [
    ("p0>a p0<a", "p0 p1", "raw", ("missing", "p1", "a"), None),
    # a crashed sender's message that one survivor delivered
    ("p2>c p2<c p0<c", "p0 p1", "raw", ("agreement", "p1", "c"), None),
    ("p0>a p0<a p0<a", "p0", "raw", ("duplicate", "p0", "a"), None),
    ("p0<a", "p0", "raw", ("unexpected", "p0", "a"), None),
    ("p0>a p0<a p0>d p0<d p1<d p1<a", "p0 p1", "fifo", ("fifo", "p1", "d", "a"), "raw"),
    (CAUSED + "p3<b p3<a p3<c", "p3", "causal", ("causal", "p3", "b", "a"), "fifo"),
    ("p0>a p0<a p1>b p1<b p0<b p1<a", "p0 p1", "total-seq", ("total", "p1", "b", "a"), "causal"),
], ids=["missing", "agreement", "duplicate", "unexpected", "fifo", "causal", "total"])
def test_each_broken_promise_is_flagged_only_where_claimed(events, judged, spec, fault, weaker):
    trace = history(events)
    assert judge(trace, judged.split(), spec).faults == (Fault(*fault),)
    if weaker is not None:
        assert judge(trace, judged.split(), weaker).ok


@pytest.mark.parametrize("events, judged", [
    ("", "p0"),
    ("p0>a p0<a", "p0"),
    (CAUSED + "p3<a p3<c p3<b", "p3"),
    (CAUSED + "p3<c p3<a p3<b", "p3"),
    # a crashed sender's message no survivor delivered is owed to nobody
    ("p2>c p2<c", "p0 p1"),
    # nor is a dependency on one
    ("p0>a p0<a p2<a p2>c p2<c p1<c", "p1"),
    ("p0>a p0<a p1<a p1>b p1<b p0<b p2<a p2<b p2>c p2<c p0<c p1<c", "p0 p1 p2"),
], ids=["empty", "singleton", "causal", "causal-concurrent-first", "unowed", "unowed-dependency",
        "one-total-order"])
def test_a_history_that_keeps_every_promise_passes(events, judged):
    assert judge(history(events), judged.split(), "total-agreed").ok


@pytest.mark.parametrize("alias", sorted(DISCIPLINES))
def test_each_aliases_claims_are_the_lattices(alias):
    order = guarantee(alias).order
    expected = tuple(ORDER_NAMES[level] for level in range(ORDER_FIFO, order + 1))
    assert judge(EventTrace(), [], alias).claims == expected


def test_the_oracle_does_not_load_the_analyser():
    """The oracle reads each spec's promise off its layers; importing it
    loads no module of the static analyser."""
    code = ("import sys, repro.check; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_an_unknown_spec_is_refused():
    with pytest.raises(ValueError):
        judge(EventTrace(), [], "dedup|nonsense")


def test_a_lossy_raw_run_judged_as_causal_fails():
    schedule = [(1, 0.0, True), (2, 5.0, True), (3, 10.0, True), (1, 15.0, True),
                (2, 20.0, False), (3, 25.0, False)]
    members, trace = run_workload("raw", schedule, seed=7, drop=0.15)
    assert judge(trace, members, "raw").ok
    assert "causal" in {fault.reason for fault in judge(trace, members, "causal").faults}
