"""The message-flow graph: unit behaviour on fixtures, wiring gate on HEAD.

The fixture tests pin the graph builder's semantics (send extraction,
typed/isinstance handler surfaces, same-tick vs. delayed edges).  The
repo-wide tests are the wiring gate: every wire-message class in
``repro.catocs``/``repro.apps`` must appear in the graph with a sender and
a handler, everything ``repro.catocs`` sends must be in the wire catalogue
the codec registers, and the CATOCS protocol subgraph must be acyclic
within a tick for every registered discipline.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from repro.analysis.callgraph import (
    LAYER_ROOT,
    PROCESS_ROOT,
    build_code_graph,
)
from repro.analysis.engine import load_project, run_analysis
from repro.analysis.flowgraph import FlowGraph, flow_graph_for
from repro.analysis.report import render_text
from repro.catocs.messages import wire_classes

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_graph(*names: str) -> FlowGraph:
    project = load_project(paths=[FIXTURES / n for n in names])
    graph = build_code_graph(project.src_modules)
    return FlowGraph(project.src_modules, graph)


@pytest.fixture(scope="module")
def repo_flow(repo_result) -> FlowGraph:
    return flow_graph_for(repo_result.project)


# -- fixture-level semantics ----------------------------------------------------


def test_same_tick_reply_is_an_edge_and_timer_reply_is_not():
    flow = fixture_graph("flow_cycle.py")
    assert ("Ping", "Pong") in flow.edges
    assert ("Pong", "Ping") in flow.edges
    # ``Slow`` replies through a non-zero timer: delayed, so no edge.
    assert all(src != "Slow" for src, _ in flow.edges)
    assert any(site.delayed for site in flow.sends if site.message == "Slow")
    assert ["Ping", "Pong"] in flow.same_tick_cycles()


def test_dead_and_orphan_classification():
    flow = fixture_graph("flow_dead_orphan.py")
    assert flow.is_sent("Telemetry") and not flow.is_handled("Telemetry")
    assert flow.is_handled("LostCommand") and not flow.is_sent("LostCommand")
    assert flow.is_sent("WorkItem") and flow.is_handled("WorkItem")


def test_typed_handler_registration_and_imported_wire_class():
    flow = fixture_graph("flow_layer_bypass.py")
    # add_message_handler(DataMessage, ...) counts as a typed handler even
    # though DataMessage is imported, not defined, in the fixture.
    assert flow.is_handled("DataMessage")
    kinds = {h.kind for h in flow.handlers if h.message == "DataMessage"}
    assert "typed" in kinds
    sends = [s for s in flow.sends if s.message == "DataMessage"]
    contexts = {s.context.rsplit(".", 1)[0].rsplit(".", 1)[-1] for s in sends}
    assert {"Rogue", "FineLayer"} <= contexts


def test_a_conditional_constructor_sends_both_classes():
    flow = fixture_graph("flow_conditional.py")
    by_site = {}
    for site in flow.sends:
        if site.context.endswith("Arbiter._on_request"):
            by_site.setdefault((site.lineno, site.via), set()).add(site.message)
    # direct, through a local, and through the forwarder's parameter
    assert sorted(by_site.values(), key=sorted) == [{"Deny", "Grant"}] * 3
    assert {via for _, via in by_site} == {"send", "_reply(payload)"}
    # the handler walk takes each class: a same-tick edge to both
    assert {("Request", "Grant"), ("Request", "Deny")} <= flow.edges
    for name in ("Grant", "Deny"):
        assert flow.is_sent(name) and flow.is_handled(name)
    # a local bound to the class itself stays unresolved
    assert not flow.is_sent("Early") and not flow.is_sent("Late")


def test_code_graph_resolves_fixture_hierarchy():
    project = load_project(paths=[FIXTURES / "flow_layer_bypass.py"])
    code = build_code_graph(project.src_modules)
    rogue = code.class_for("Rogue")
    layer = code.class_for("FineLayer")
    assert rogue is not None and code.is_subtype(rogue.qualname, PROCESS_ROOT)
    assert layer is not None and code.is_subtype(layer.qualname, LAYER_ROOT)
    assert not code.is_subtype(rogue.qualname, LAYER_ROOT)


def fixture_output_digests():
    """sha256 of the fixture directory's findings, as ``python -m
    repro.analysis tests/analysis/fixtures`` prints them."""
    result = run_analysis(root=REPO_ROOT, paths=[FIXTURES])
    text = render_text(result.findings, result.suppressed)
    return {"findings.txt": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_fixture_graph_and_effects_match_the_pinned_digest():
    """A refactor of the flow graph or the effect table must not move a
    byte of what the rules conclude about the fixtures."""
    pins = (FIXTURES.parent / "fixture_outputs.sha256").read_text()
    pinned = dict(reversed(line.split()) for line in pins.splitlines())
    assert fixture_output_digests() == pinned


# -- repo-wide wiring gate ------------------------------------------------------


def catocs_wire_classes():
    """Every concrete class defined in ``repro.catocs.messages``."""
    path = REPO_ROOT / "src" / "repro" / "catocs" / "messages.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def test_every_catocs_wire_class_is_in_the_graph(repo_flow):
    missing = catocs_wire_classes() - set(repo_flow.messages)
    assert missing == set(), f"wire classes absent from flow graph: {missing}"


def test_no_dead_messages_or_orphan_handlers_at_head(repo_flow):
    dead = sorted(
        name for name in repo_flow.sent_names()
        if not repo_flow.is_handled(name)
    )
    orphan = sorted(
        name for name in repo_flow.handled_names()
        if not repo_flow.is_sent(name)
    )
    assert dead == [], f"sent but never handled: {dead}"
    assert orphan == [], f"handled but never sent: {orphan}"


def test_every_wire_class_has_a_handler(repo_flow):
    """``wire_classes()`` is what the codec registers at import: each of
    them needs a handler."""
    unhandled = sorted(
        cls.__name__ for cls in wire_classes()
        if not repo_flow.is_handled(cls.__name__)
    )
    assert unhandled == [], f"wire classes without a handler: {unhandled}"


def test_every_catocs_send_is_a_wire_class(repo_flow):
    """``repro.catocs`` sends nothing outside ``wire_classes()``: such a
    message would raise ``CodecError`` on the first socket."""
    catalogue = {cls.__name__ for cls in wire_classes()}
    uncatalogued = sorted(
        {site.message for site in repo_flow.sends
         if site.relpath.startswith("src/repro/catocs/")} - catalogue
    )
    assert uncatalogued == [], f"catocs sends outside wire_classes(): {uncatalogued}"


def test_catocs_subgraph_is_acyclic_per_tick(repo_flow):
    """No registered discipline may reply to protocol traffic in the same
    tick it was delivered: a same-tick cycle through the CATOCS wire
    catalogue would let one delivery trigger unbounded protocol chatter
    before the simulator advances.  The app-level RPC request/reply cycle
    is bounded by pending work, and each send site argues its bound in a
    comment; the protocol stack itself gets no such waiver."""
    catocs = {
        name for name, module in repo_flow.messages.items()
        if module.startswith("repro.catocs")
    }
    protocol_cycles = [
        cycle for cycle in repo_flow.same_tick_cycles()
        if any(name in catocs for name in cycle)
    ]
    assert protocol_cycles == [], (
        f"same-tick cycles through protocol messages: {protocol_cycles}"
    )


def test_packet_delivery_is_a_delayed_edge_out_of_network_send(repo_flow):
    # The network hands ``_deliver`` to the kernel's handle-free ``post_at``;
    # the graph must read that as it read ``call_at``: a call, next tick.
    summary = repo_flow.summaries["repro.sim.network.Network.send"]
    scheduled = {
        ast.unparse(call.func)
        for call, delayed in summary.plain_calls if delayed
    }
    assert scheduled == {"self._deliver"}


def test_apps_wire_messages_are_covered(repo_flow):
    """Every message an app sends must resolve to a node with a handler."""
    app_sends = {
        site.message for site in repo_flow.sends
        if site.context.startswith(("repro.apps.", "repro.detect.",
                                    "repro.txn."))
    }
    assert app_sends, "expected app modules to send messages"
    unhandled = sorted(
        name for name in app_sends if not repo_flow.is_handled(name)
    )
    assert unhandled == [], f"app messages without handlers: {unhandled}"
