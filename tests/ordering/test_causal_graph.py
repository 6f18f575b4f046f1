"""Unit tests for the Section 5 active causal graph."""

from repro.ordering import CausalGraph


def test_add_and_arcs():
    g = CausalGraph()
    g.add_message("m1", set(), size=10)
    g.add_message("m2", {"m1"}, size=20)
    assert g.node_count == 2
    assert g.arc_count == 1
    assert g.buffered_bytes == 30
    assert g.predecessors("m2") == {"m1"}
    assert g.successors("m1") == {"m2"}


def test_unknown_predecessors_ignored():
    g = CausalGraph()
    g.add_message("m2", {"already-stable"}, size=5)
    assert g.arc_count == 0


def test_stabilize_removes_node_and_incident_arcs():
    g = CausalGraph()
    g.add_message("m1", set())
    g.add_message("m2", {"m1"})
    g.add_message("m3", {"m1", "m2"})
    assert g.arc_count == 3
    g.stabilize("m1")
    assert g.node_count == 2
    assert g.arc_count == 1
    assert g.predecessors("m3") == {"m2"}


def test_stabilize_unknown_is_noop():
    g = CausalGraph()
    g.stabilize("ghost")
    assert g.node_count == 0


def test_duplicate_add_ignored():
    g = CausalGraph()
    g.add_message("m1", set(), size=10)
    g.add_message("m1", set(), size=10)
    assert g.node_count == 1 and g.buffered_bytes == 10


def test_peaks_track_high_water_marks():
    g = CausalGraph()
    g.add_message("m1", set(), size=100)
    g.add_message("m2", {"m1"}, size=100)
    g.stabilize("m1")
    g.stabilize("m2")
    metrics = g.metrics()
    assert metrics["nodes"] == 0 and metrics["arcs"] == 0
    assert metrics["peak_nodes"] == 2
    assert metrics["peak_arcs"] == 1
    assert metrics["peak_bytes"] == 200
    assert metrics["total_arcs_added"] == 1


def test_frontier_lists_dependency_free_messages():
    g = CausalGraph()
    g.add_message("m1", set())
    g.add_message("m2", {"m1"})
    assert g.frontier() == ["m1"]
    g.stabilize("m1")
    assert g.frontier() == ["m2"]


def test_contains_follows_add_and_stabilize():
    g = CausalGraph()
    assert not g.contains("m1")
    g.add_message("m1", set())
    g.add_message("m2", {"m1"})
    assert g.contains("m1") and g.contains("m2")
    g.stabilize("m1")
    assert not g.contains("m1") and g.contains("m2")
