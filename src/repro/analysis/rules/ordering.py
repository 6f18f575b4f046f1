"""ORD001-004: handler semantics joined against delivery guarantees.

The paper's core claim (Sections 2-3) is that CATOCS orders *messages*,
not *semantics*: the substrate can promise causal or total delivery and
still reorder operations whose meaning does not commute, miss orderings
that enter through channels it cannot see, and deliver messages that are
not yet stable.  These rules are the static version of that argument,
run against our own applications:

- **ORD001** — two handlers on the same process with non-commuting
  effects (write/write, or read-then-act against a write, on the same
  attribute) for message types the configured stack can deliver in
  either order (Fig. 5 as a lint: concurrent multicasts under anything
  weaker than total order).
- **ORD002** — a handler that blindly overwrites state with a
  payload-derived value ("last writer wins") when the stack does not
  serialise writers: always unsafe over plain jittered ``Process.send``,
  and unsafe under FIFO/causal as soon as a second sender exists.
- **ORD003** — a semantic dependency entering from *outside* the message
  system: a hidden-channel read of another process's state gating or
  feeding a send (Fig. 1 meets Fig. 5 — no delivery discipline can ever
  enforce an ordering it cannot observe).
- **ORD004** — destructive state operations (``pop``/``remove``/
  ``clear``/``del``) in handlers of a group member whose spec lacks a
  stability layer: the state may be consumed before the group agrees the
  triggering message is stable (Section 3.1), so a late peer or a repair
  can no longer be served.  Warning severity — destructive-before-stable
  is a judgement call the way a blind overwrite is not.

The substrate itself (``repro.sim``, ``repro.catocs``, ...) is exempt:
protocol layers exist to *implement* ordering and legitimately mutate
shared buffers; the rules target the application end, where the paper
says the semantics live.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.astutil import called_name, is_process_lookup
from repro.analysis.callgraph import (
    ClassInfo,
    CodeGraph,
    FunctionInfo,
    PROCESS_ROOT,
    code_graph_for,
)
from repro.analysis.effects import EffectTable, effect_table_for
from repro.analysis.finding import Finding, Severity
from repro.analysis.flowgraph import SEND_ARG, TIMER_FUNCS
from repro.analysis.orders import (
    GuaranteeEnv,
    MEMBER_ROOT,
    ORDER_FIFO,
    ORDER_NONE,
    ORDER_TOTAL,
    guarantee_env_for,
)
from repro.analysis.rules import Rule
from repro.analysis.source import SourceModule

#: modules that implement ordering rather than consume it.
SUBSTRATE_PREFIXES = (
    "repro.sim",
    "repro.catocs",
    "repro.ordering",
    "repro.runtime",
    "repro.analysis",
    "repro.obs",
)


def _is_substrate(info: ClassInfo) -> bool:
    return any(
        info.module == p or info.module.startswith(p + ".")
        for p in SUBSTRATE_PREFIXES
    )


class _OrdRule(Rule):
    """Shared plumbing: effect table + guarantee env + module lookup."""

    scopes = ("src",)

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        table = effect_table_for(project)
        env = guarantee_env_for(project)
        by_relpath: Dict[str, SourceModule] = {
            m.relpath: m for m in project.src_modules
        }
        return self.check_table(table, env, by_relpath)

    def check_table(
        self,
        table: EffectTable,
        env: GuaranteeEnv,
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        return ()


class ConcurrentConflictRule(_OrdRule):
    """ORD001: non-commuting handlers for concurrently deliverable types."""

    rule_id = "ORD001"
    title = "non-commuting handlers under a concurrency-permitting order"
    severity = Severity.ERROR

    def check_table(
        self,
        table: EffectTable,
        env: GuaranteeEnv,
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        for process in table.processes():
            info = table.code.class_for(process)
            if info is None or _is_substrate(info):
                continue
            guarantee = env.guarantee_for(info)
            if guarantee.order >= ORDER_TOTAL:
                continue
            rows = table.rows_for(process)
            for i, a in enumerate(rows):
                for b in rows[i + 1:]:
                    if a.message == b.message:
                        continue
                    pairs = table.conflicts(a, b)
                    if not pairs:
                        continue
                    if not (
                        table.group_sent(a.message)
                        and table.group_sent(b.message)
                    ):
                        continue
                    mod = by_relpath.get(b.relpath)
                    if mod is None:
                        continue
                    attrs = ", ".join(
                        f"`self.{attr}` ({detail})" for attr, detail in pairs
                    )
                    yield self.finding(
                        mod,
                        b.lineno,
                        f"{info.name} handles {a.message} and {b.message} "
                        f"with non-commuting effects on {attrs}, but its "
                        f"stack ({guarantee.spec!r}, {guarantee.order_name} "
                        "order) can deliver the two in either order at "
                        "different members (paper Fig. 5)",
                        hint="make the effects commute (merge/keyed "
                        "updates, state-level checks) or configure a "
                        "total-order spec for this group",
                    )


class TotalOrderAssumptionRule(_OrdRule):
    """ORD002: last-writer-wins overwrite without a serialising order."""

    rule_id = "ORD002"
    title = "blind overwrite assumes total order the spec does not give"
    severity = Severity.ERROR

    def check_table(
        self,
        table: EffectTable,
        env: GuaranteeEnv,
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        for process in table.processes():
            info = table.code.class_for(process)
            if info is None or _is_substrate(info):
                continue
            guarantee = env.guarantee_for(info)
            if guarantee.order >= ORDER_TOTAL:
                continue
            for row in table.rows_for(process):
                senders = table.sender_contexts(row.message)
                # A single FIFO/causal sender serialises its own writes;
                # below FIFO even one sender's packets can swap in flight.
                if guarantee.order >= ORDER_FIFO and len(senders) < 2:
                    continue
                mod = by_relpath.get(row.relpath)
                if mod is None:
                    continue
                for effect in row.effects:
                    if (
                        effect.kind != "assign"
                        or effect.guarded
                        or not effect.payload_derived
                    ):
                        continue
                    why = (
                        "no delivery order is promised at all"
                        if guarantee.order == ORDER_NONE
                        else f"{len(senders)} senders are never serialised "
                        f"under {guarantee.order_name} order"
                    )
                    yield self.finding(
                        mod,
                        effect.lineno,
                        f"{info.name} handler for {row.message} overwrites "
                        f"`self.{effect.attr}` with a payload value — "
                        f"last-writer-wins, but {why} "
                        f"(spec {guarantee.spec!r})",
                        hint="guard the write with a state/sequence check, "
                        "merge instead of overwriting, or use a "
                        "total-order spec",
                    )


class ExternalGateRule(_OrdRule):
    """ORD003: a hidden-channel read gating or feeding a send."""

    rule_id = "ORD003"
    title = "send gated by state outside the message system"
    severity = Severity.ERROR

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        graph = code_graph_for(project)
        by_relpath = {m.relpath: m for m in project.src_modules}
        findings: List[Finding] = []
        for info in graph.subtypes_of(PROCESS_ROOT):
            if _is_substrate(info):
                continue
            mod = by_relpath.get(info.relpath)
            if mod is None:
                continue
            for name in sorted(info.methods):
                findings.extend(
                    self._check_method(graph, mod, info, info.methods[name])
                )
        return findings

    def _check_method(
        self,
        graph: CodeGraph,
        mod: SourceModule,
        info: ClassInfo,
        method: FunctionInfo,
    ) -> Iterable[Finding]:
        assert isinstance(method.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        process_vars: Set[str] = set()
        external_locals: Set[str] = set()
        for node in ast.walk(method.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                if is_process_lookup(node.value):
                    process_vars.add(node.targets[0].id)
                elif self._has_external_read(
                    graph, info, node.value, process_vars
                ):
                    external_locals.add(node.targets[0].id)
        reported: Set[int] = set()
        for node in ast.walk(method.node):
            if isinstance(node, ast.If):
                if not self._reads_external(
                    graph, info, node.test, process_vars, external_locals
                ):
                    continue
                send_line = self._first_send_line(node.body)
                if send_line is None or node.lineno in reported:
                    continue
                reported.add(node.lineno)
                yield self.finding(
                    mod,
                    node.lineno,
                    f"{info.name}.{method.name} gates a send (line "
                    f"{send_line}) on another process's state read outside "
                    "the message system — an ordering dependency no "
                    "delivery discipline can see or enforce "
                    "(paper Fig. 1 + Fig. 5)",
                    hint="have the other process announce the state in a "
                    "message and gate on the local copy, or annotate a "
                    "deliberate oracle with `# repro: ignore[ORD003]`",
                )
            elif isinstance(node, ast.Call):
                name = called_name(node)
                if name not in SEND_ARG or node.lineno in reported:
                    continue
                if any(
                    self._reads_external(
                        graph, info, arg, process_vars, external_locals
                    )
                    for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                ):
                    reported.add(node.lineno)
                    yield self.finding(
                        mod,
                        node.lineno,
                        f"{info.name}.{method.name} sends a payload built "
                        "from another process's state read outside the "
                        "message system — the causal dependency is "
                        "invisible to the delivery layer (paper Fig. 1)",
                        hint="receive that state as a message first, or "
                        "annotate a deliberate oracle with "
                        "`# repro: ignore[ORD003]`",
                    )

    def _reads_external(
        self,
        graph: CodeGraph,
        info: ClassInfo,
        expr: ast.AST,
        process_vars: Set[str],
        external_locals: Set[str],
    ) -> bool:
        if self._has_external_read(graph, info, expr, process_vars):
            return True
        return any(
            isinstance(node, ast.Name) and node.id in external_locals
            for node in ast.walk(expr)
        )

    def _has_external_read(
        self,
        graph: CodeGraph,
        info: ClassInfo,
        expr: ast.AST,
        process_vars: Set[str],
    ) -> bool:
        """Does ``expr`` contain ``<other process>.attr`` (the paper's
        Fig. 1 hidden-channel shape)?"""
        return any(
            isinstance(node, ast.Attribute)
            and graph.foreign_access(info, node, process_vars) is not None
            for node in ast.walk(expr)
        )

    def _first_send_line(self, stmts: List[ast.stmt]) -> Optional[int]:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = called_name(node)
                if name in SEND_ARG:
                    return node.lineno
                if name in TIMER_FUNCS and len(node.args) > 1:
                    fn = node.args[TIMER_FUNCS[name][1]]
                    fn_name = (
                        fn.attr if isinstance(fn, ast.Attribute) else None
                    )
                    if fn_name in SEND_ARG:
                        return node.lineno
        return None


class PreStabilityActionRule(_OrdRule):
    """ORD004: destructive handler effects without a stability layer."""

    rule_id = "ORD004"
    title = "destructive effect before stability on a non-stable spec"
    severity = Severity.WARNING

    def check_table(
        self,
        table: EffectTable,
        env: GuaranteeEnv,
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        for process in table.processes():
            info = table.code.class_for(process)
            if info is None or _is_substrate(info):
                continue
            if not table.code.is_subtype(process, MEMBER_ROOT):
                continue
            guarantee = env.guarantee_for(info)
            if guarantee.stable:
                continue
            for row in table.rows_for(process):
                mod = by_relpath.get(row.relpath)
                if mod is None:
                    continue
                for effect in row.effects:
                    if effect.kind != "destructive":
                        continue
                    yield self.finding(
                        mod,
                        effect.lineno,
                        f"{info.name} handler for {row.message} "
                        f"destructively updates `self.{effect.attr}`, but "
                        f"spec {guarantee.spec!r} has no stability layer — "
                        "the state is consumed before the group agrees the "
                        "message is stable (paper Section 3.1)",
                        hint="add `stability` to the spec, or defer the "
                        "destructive step until an application-level "
                        "acknowledgement round",
                    )


__all__ = [
    "ConcurrentConflictRule",
    "TotalOrderAssumptionRule",
    "ExternalGateRule",
    "PreStabilityActionRule",
    "SUBSTRATE_PREFIXES",
]
