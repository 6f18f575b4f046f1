"""Unit tests for the ORD foundations: the guarantee lattice
(``repro.analysis.orders``, over ``repro.catocs.stack.guarantee``) and the
handler effect table (``repro.analysis.effects``)."""

import ast
from pathlib import Path

import pytest

from repro.analysis.effects import effect_table_for
from repro.analysis.engine import load_project
from repro.analysis.flowgraph import flow_graph_for
from repro.analysis.orders import (
    PLAIN_SEND,
    guarantee_env_for,
    meet,
    resolve,
    spec_strings_in,
)
from repro.catocs.ordering_layers import OrderingLayer
from repro.catocs.stack import (
    LAYER_REGISTRY,
    ORDER_CAUSAL,
    ORDER_FIFO,
    ORDER_NONE,
    ORDER_TOTAL,
    register_layer,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# -- guarantee lattice -------------------------------------------------------------


def test_discipline_aliases_map_onto_the_lattice():
    assert resolve("raw").order == ORDER_NONE
    assert resolve("fifo").order == ORDER_FIFO
    assert resolve("causal").order == ORDER_CAUSAL
    assert resolve("total-seq").order == ORDER_TOTAL
    assert resolve("total-agreed").order == ORDER_TOTAL


def test_stability_and_atomicity_flags():
    # The built-in aliases all include the stability layer...
    assert resolve("raw").stable
    # ...but an explicit spec can omit it.
    assert not resolve("dedup|causal").stable
    assert resolve("dedup|stability|causal").stable
    # hybrid-causal retains messages itself.
    assert resolve("dedup|hybrid-causal").stable


def test_invalid_spec_resolves_to_none():
    assert resolve("no-such-discipline") is None
    assert resolve("dedup|bogus-layer|causal") is None


def test_unknown_ordering_layer_promises_nothing():
    """Under-claiming is the safe direction: an ordering layer that
    declares no order promises ORDER_NONE, never something stronger."""

    class ExoticOrdering(OrderingLayer):
        name = "exotic-order"

    register_layer(ExoticOrdering)
    try:
        assert resolve("dedup|exotic-order").order == ORDER_NONE
    finally:
        LAYER_REGISTRY.pop("exotic-order", None)


def test_meet_takes_the_weakest_order_first_on_ties():
    fifo = resolve("fifo")
    assert meet([resolve("total-agreed"), fifo]) is fifo
    assert meet([fifo, resolve("dedup|fifo")]) is fifo
    assert meet([]) is None


def test_plain_send_is_the_lattice_bottom():
    assert PLAIN_SEND.order == ORDER_NONE
    assert not PLAIN_SEND.stable


def test_spec_strings_in_finds_keywords_and_defaults():
    tree = ast.parse(
        "def build(ordering='causal'):\n"
        "    return make(discipline='raw', other='not-a-spec')\n"
    )
    assert {s for s, _ in spec_strings_in(tree)} == {"causal", "raw"}


# -- guarantee environment ---------------------------------------------------------


def test_class_lexical_specs_resolve_per_class():
    """Two members in one module: each gets the spec its own constructor
    names, not the module's weakest."""
    project = load_project(paths=[FIXTURES / "ord_conflict.py"])
    env = guarantee_env_for(project)
    table = effect_table_for(project)
    by_name = {}
    from repro.analysis.flowgraph import code_graph_for

    graph = code_graph_for(project)
    for qualname in table.processes():
        info = graph.class_for(qualname)
        by_name[info.name] = env.guarantee_for(info)
    assert by_name["FloorController"].order == ORDER_CAUSAL
    assert by_name["FineTotalController"].order == ORDER_TOTAL
    assert by_name["FineTotalController"].spec == "total-seq"


# -- effect table ------------------------------------------------------------------


@pytest.fixture(scope="module")
def conflict_table():
    return effect_table_for(load_project(paths=[FIXTURES / "ord_conflict.py"]))


@pytest.fixture(scope="module")
def assume_table():
    return effect_table_for(
        load_project(paths=[FIXTURES / "ord_total_assume.py"])
    )


def _rows(table, class_name):
    for process in table.processes():
        if process.rsplit(".", 1)[-1] == class_name:
            return {r.message.rsplit(".", 1)[-1]: r
                    for r in table.rows_for(process)}
    return {}


def test_blind_assign_is_noncommuting(conflict_table):
    rows = _rows(conflict_table, "FloorController")
    stop = rows["StopOrder"]
    effects = stop.write_effects("running")
    assert effects and all(e.kind == "assign" for e in effects)
    assert all(e.noncommuting for e in effects)


def test_augmented_writes_classify_as_merge(conflict_table):
    rows = _rows(conflict_table, "FineMergeController")
    for row in rows.values():
        for effect in row.write_effects("total"):
            assert effect.kind == "merge"
            assert not effect.noncommuting


def test_conflicts_pair_noncommuting_writers(conflict_table):
    rows = _rows(conflict_table, "FloorController")
    pairs = conflict_table.conflicts(rows["StartOrder"], rows["StopOrder"])
    assert [attr for attr, _ in pairs] == ["running"]


def test_commuting_handlers_do_not_conflict(conflict_table):
    rows = _rows(conflict_table, "FineMergeController")
    assert conflict_table.conflicts(rows["StatusPing"], rows["StopOrder"]) == []


def test_group_sent_requires_multicast_evidence(conflict_table, assume_table):
    (stop_qual,) = [
        r.message
        for r in conflict_table.rows
        if r.message.rsplit(".", 1)[-1] == "StopOrder"
        and "FloorController" in r.process
    ]
    assert conflict_table.group_sent(stop_qual)
    (slot_qual,) = {
        r.message
        for r in assume_table.rows
        if r.message.rsplit(".", 1)[-1] == "SlotUpdate"
    }
    assert not assume_table.group_sent(slot_qual)


def test_sender_contexts_count_distinct_functions(assume_table):
    (claim,) = {
        r.message
        for r in assume_table.rows
        if r.message.rsplit(".", 1)[-1] == "LeaderClaim"
    }
    assert len(assume_table.sender_contexts(claim)) == 2


def test_semantic_guard_marks_downstream_writes(assume_table):
    rows = _rows(assume_table, "FineGuardedWriter")
    effects = rows["VersionedUpdate"].write_effects("slot")
    assert effects and all(e.guarded for e in effects)
    assert all(not e.noncommuting for e in effects)


def test_payload_derived_flag(assume_table):
    rows = _rows(assume_table, "SlotWriter")
    (effect,) = rows["SlotUpdate"].write_effects("slot")
    assert effect.payload_derived
    assert effect.kind == "assign"


# -- effect rows against the flow graph ----------------------------------------------


TIMER_MODULE = """\
from repro.sim.process import Process


class Tick:
    pass


class Tock:
    pass


class Clock(Process):
    def on_message(self, src, payload):
        if isinstance(payload, Tick):
            self.set_timer(5, self._later, src)
        if isinstance(payload, Tock):
            self.seen = payload

    def _later(self, src):
        self.send(src, Tock())

    def kick(self, dst):
        self.send(dst, Tick())
"""


def test_sends_behind_a_timer_callback_are_delayed(tmp_path):
    path = tmp_path / "clock.py"
    path.write_text(TIMER_MODULE, encoding="utf-8")
    project = load_project(paths=[path])
    rows = {r.message: r for r in effect_table_for(project).rows}
    assert rows["Tick"].sends is True and rows["Tock"].sends is False
    assert ("Tick", "Tock") not in flow_graph_for(project).edges
