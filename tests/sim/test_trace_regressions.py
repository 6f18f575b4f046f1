"""Regression tests: trace filtering and event-diagram tie-breaking.

- ``for_pid``/``of_kind``/``labels`` are pinned to the linear-scan
  semantics, and ``clear`` leaves nothing for them to find.
- The seed's ``render_event_diagram`` sorted same-time entries by pid,
  which could draw an effect above its cause; rows must keep trace
  insertion order (the order the kernel executed them).
"""

from repro.sim import EventTrace, render_event_diagram


def test_diagram_same_time_rows_keep_insertion_order():
    trace = EventTrace()
    # "z" acts strictly before "a" at the same instant.  The seed sorted by
    # (time, pid) and drew a's effect above z's cause.
    trace.record(1.0, "z", "send", "cause")
    trace.record(1.0, "a", "deliver", "effect")
    out = render_event_diagram(trace, ["a", "z"])
    assert out.index("send: cause") < out.index("deliver: effect")


def test_diagram_still_sorts_across_distinct_times():
    trace = EventTrace()
    trace.record(2.0, "a", "deliver", "later")
    trace.record(1.0, "b", "send", "earlier")
    out = render_event_diagram(trace, ["a", "b"])
    assert out.index("send: earlier") < out.index("deliver: later")


def _linear_for_pid(trace, pid):
    return [e for e in trace.entries if e.pid == pid]


def _linear_of_kind(trace, kind):
    return [e for e in trace.entries if e.kind == kind]


def test_indexed_filters_match_linear_scan():
    trace = EventTrace()
    for i in range(500):
        trace.record(float(i), f"p{i % 7}", ("send", "recv", "deliver")[i % 3],
                     f"m{i}", msg_id=i)
    for pid in ["p0", "p3", "p6", "absent"]:
        assert trace.for_pid(pid) == _linear_for_pid(trace, pid)
    for kind in ["send", "recv", "deliver", "absent"]:
        assert trace.of_kind(kind) == _linear_of_kind(trace, kind)
    assert trace.labels(pid="p1") == [e.label for e in _linear_for_pid(trace, "p1")]
    assert trace.labels(kind="recv") == [e.label for e in _linear_of_kind(trace, "recv")]
    assert trace.labels(pid="p2", kind="send") == [
        e.label for e in trace.entries if e.pid == "p2" and e.kind == "send"
    ]


def test_indexes_reset_on_clear():
    trace = EventTrace()
    trace.record(1.0, "p", "send", "old")
    trace.clear()
    assert trace.for_pid("p") == []
    assert trace.of_kind("send") == []
    trace.record(2.0, "p", "send", "new")
    assert [e.label for e in trace.for_pid("p")] == ["new"]
