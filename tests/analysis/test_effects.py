"""Unit tests for the ORD foundations: the guarantee lattice
(``repro.analysis.orders``) and the handler effect table
(``repro.analysis.effects``)."""

import ast
from pathlib import Path

import pytest

from repro.analysis.effects import SendEffect, effect_table_for
from repro.analysis.engine import load_project
from repro.analysis.flowgraph import flow_graph_for
from repro.analysis.orders import (
    GuaranteeModel,
    ORDER_CAUSAL,
    ORDER_FIFO,
    ORDER_NONE,
    ORDER_TOTAL,
    PLAIN_SEND,
    guarantee_env_for,
    spec_strings_in,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# -- guarantee lattice -------------------------------------------------------------


def test_discipline_aliases_map_onto_the_lattice():
    model = GuaranteeModel()
    assert model.resolve("raw").order == ORDER_NONE
    assert model.resolve("fifo").order == ORDER_FIFO
    assert model.resolve("causal").order == ORDER_CAUSAL
    assert model.resolve("total-seq").order == ORDER_TOTAL
    assert model.resolve("total-agreed").order == ORDER_TOTAL


def test_stability_and_atomicity_flags():
    model = GuaranteeModel()
    # The built-in aliases all include the stability layer...
    assert model.resolve("raw").stable
    # ...but an explicit spec can omit it.
    assert not model.resolve("dedup|causal").stable
    assert model.resolve("dedup|stability|causal").stable
    assert model.resolve("total-agreed").atomic
    assert not model.resolve("total-seq").atomic


def test_invalid_spec_resolves_to_none():
    model = GuaranteeModel()
    assert model.resolve("no-such-discipline") is None
    assert model.resolve("dedup|bogus-layer|causal") is None


def test_unknown_ordering_layer_promises_nothing():
    """Under-claiming is the safe direction: a layer the table does not
    know maps to ORDER_NONE, never to something stronger."""
    model = GuaranteeModel(resolver=lambda spec: ("dedup", "exotic-order"))
    assert model.resolve("anything").order == ORDER_NONE


def test_meet_takes_the_weakest_order_and_ands_the_flags():
    model = GuaranteeModel()
    met = model.meet([model.resolve("total-agreed"), model.resolve("fifo")])
    assert met.order == ORDER_FIFO
    assert met.spec == "fifo"
    assert not met.atomic
    assert model.meet([]) is None


def test_plain_send_is_the_lattice_bottom():
    assert PLAIN_SEND.order == ORDER_NONE
    assert not PLAIN_SEND.stable
    assert not PLAIN_SEND.atomic


def test_spec_strings_in_finds_keywords_and_defaults():
    tree = ast.parse(
        "def build(ordering='causal'):\n"
        "    return make(discipline='raw', other='not-a-spec')\n"
    )
    assert {s for s, _ in spec_strings_in(tree)} == {"causal", "raw"}


# -- guarantee environment ---------------------------------------------------------


@pytest.fixture(scope="module")
def stability_project():
    return load_project(paths=[FIXTURES / "ord_stability.py"])


def test_class_lexical_specs_resolve_per_class(stability_project):
    env = guarantee_env_for(stability_project)
    table = effect_table_for(stability_project)
    by_name = {}
    from repro.analysis.flowgraph import code_graph_for

    graph = code_graph_for(stability_project)
    for qualname in table.processes():
        info = graph.class_for(qualname)
        by_name[info.name] = env.guarantee_for(info)
    assert not by_name["LedgerMember"].stable
    assert by_name["FineStableMember"].stable
    assert by_name["LedgerMember"].order == ORDER_CAUSAL


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


def test_effect_sends_agree_with_flow_edges(repo_result):
    """Both views walk a handler with one walker, so every same-tick send
    of a constructed class in an effect row is a flow edge out of the
    row's message."""
    missing = []
    for project in (repo_result.project, load_project(paths=[FIXTURES])):
        flow = flow_graph_for(project)
        for row in effect_table_for(project).rows:
            for send in row.sends:
                if send.delayed or send.message == "<payload>":
                    continue
                if flow.edge_for(row.message, send.message) is None:
                    missing.append(
                        (row.context, row.message, send.message, send.lineno)
                    )
    assert missing == []


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
    (row,) = [r for r in effect_table_for(project).rows if r.message == "Tick"]
    line = TIMER_MODULE.splitlines().index("        self.send(src, Tock())") + 1
    assert row.sends == [
        SendEffect(message="Tock", via="send", lineno=line, delayed=True)
    ]
    assert flow_graph_for(project).edge_for("Tick", "Tock") is None
