"""RACE001-005: hidden channels and interleaving hazards.

The paper's Fig. 1 hidden channel is a process observing another
process's state through a path the ordering substrate cannot see.  In
this repo the substrate is the simulator's event queue: every legitimate
interaction between two simulated processes is a message (or a timer),
so *any* direct attribute access from one ``Process`` onto another is a
hidden channel by construction — causal delivery can no longer claim to
capture the causality that access created.  The other rules in the
family cover the subtler interleaving hazards around the same boundary:
state shared between processes through module globals, handler state
leaking across calls through mutable defaults, payload objects mutated
after they were handed to ``send`` (delivery is by reference inside one
tick), and protocol layers aliasing each other's buffers.

All five rules work on the cross-module class graph
(:mod:`repro.analysis.callgraph`) and are pure AST — they run in
explicit-paths fixture mode as long as the fixture names its base
classes (``Process``, ``ProtocolLayer``) through ordinary imports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name, is_process_lookup
from repro.analysis.callgraph import (
    ClassInfo,
    CodeGraph,
    FunctionInfo,
    LAYER_ROOT,
    PROCESS_ROOT,
    STACK_ROOT,
    code_graph_for,
)
from repro.analysis.finding import Finding, Severity
from repro.analysis.flowgraph import SEND_ARG
from repro.analysis.rules import Rule
from repro.analysis.source import SourceModule

#: constructor-ish calls that build an (empty) mutable container.
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "deque", "Counter"}


def _is_mutable_value(node: Optional[ast.AST]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name and name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES:
            return True
    return False


def _methods(info: ClassInfo) -> List[FunctionInfo]:
    return [info.methods[name] for name in sorted(info.methods)]


class _GraphRule(Rule):
    """Shared plumbing: iterate classes of a subtype, with module context."""

    root = PROCESS_ROOT

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        graph = code_graph_for(project)
        by_relpath: Dict[str, SourceModule] = {
            m.relpath: m for m in project.src_modules
        }
        findings: List[Finding] = []
        for info in graph.subtypes_of(self.root):
            mod = by_relpath.get(info.relpath)
            if mod is None:
                continue
            findings.extend(self.check_class(graph, mod, info))
        findings.extend(self.check_extra(graph, project, by_relpath))
        return findings

    def check_class(
        self, graph: CodeGraph, mod: SourceModule, info: ClassInfo
    ) -> Iterable[Finding]:
        return ()

    def check_extra(
        self,
        graph: CodeGraph,
        project,  # type: ignore[no-untyped-def]
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        return ()


class HiddenChannelRule(_GraphRule):
    """RACE001: a Process reads or writes another process's attributes."""

    rule_id = "RACE001"
    title = "cross-process state access bypassing the event queue"
    severity = Severity.ERROR

    def check_class(
        self, graph: CodeGraph, mod: SourceModule, info: ClassInfo
    ) -> Iterable[Finding]:
        for method in _methods(info):
            yield from self._check_method(graph, mod, info, method)

    def _check_method(
        self,
        graph: CodeGraph,
        mod: SourceModule,
        info: ClassInfo,
        method: FunctionInfo,
    ) -> Iterable[Finding]:
        assert isinstance(method.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        # Names bound to another process object within this method:
        # ``server = self.network.process(pid)``.
        process_vars: Set[str] = set()
        for node in ast.walk(method.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and is_process_lookup(node.value)
            ):
                process_vars.add(node.targets[0].id)
        reported: Set[int] = set()
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Attribute):
                continue
            other = graph.foreign_access(info, node, process_vars)
            if other is None or node.lineno in reported:
                continue
            reported.add(node.lineno)
            access = "writes" if isinstance(node.ctx, ast.Store) else "reads"
            yield self.finding(
                mod,
                node.lineno,
                f"{info.name}.{method.name} {access} "
                f"`.{node.attr}` on {other} — a hidden channel bypassing "
                "the sim event queue (paper Fig. 1)",
                hint="route the interaction through a message "
                "(member.send / network) or annotate a deliberate oracle "
                "with `# repro: ignore[RACE001]` and a justification",
            )


class SharedModuleStateRule(_GraphRule):
    """RACE002: module-level mutable state used by several Process classes."""

    rule_id = "RACE002"
    title = "module-level mutable state shared across processes"
    severity = Severity.ERROR

    def check_extra(
        self,
        graph: CodeGraph,
        project,  # type: ignore[no-untyped-def]
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        globals_by_name: Dict[str, List[Tuple[SourceModule, str, int]]] = {}
        for mod in project.src_modules:
            for node in mod.tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _is_mutable_value(node.value)
                ):
                    name = node.targets[0].id
                    globals_by_name.setdefault(name, []).append(
                        (mod, name, node.lineno)
                    )
        if not globals_by_name:
            return
        process_classes = graph.subtypes_of(PROCESS_ROOT)
        for name in sorted(globals_by_name):
            for mod, varname, lineno in globals_by_name[name]:
                users = self._process_users(
                    graph, process_classes, mod, varname
                )
                if len(users) >= 2:
                    yield self.finding(
                        mod,
                        lineno,
                        f"module-level mutable `{varname}` is used by "
                        f"{len(users)} Process classes "
                        f"({', '.join(sorted(users))}) — shared state "
                        "outside the event queue",
                        hint="give each process its own instance (plumb it "
                        "through the constructor) or make the value "
                        "immutable",
                    )

    def _process_users(
        self,
        graph: CodeGraph,
        process_classes: List[ClassInfo],
        defining_mod: SourceModule,
        varname: str,
    ) -> Set[str]:
        def_module = defining_mod.module or defining_mod.relpath
        users: Set[str] = set()
        for info in process_classes:
            bindings = graph.imports.get(info.relpath, {})
            binding = bindings.get(varname)
            same_module = info.relpath == defining_mod.relpath
            imported = binding is not None and binding.rsplit(".", 1)[
                -1
            ] == varname and (
                binding.startswith(".")
                or binding.rsplit(".", 1)[0].endswith(
                    def_module.rsplit(".", 1)[-1]
                )
            )
            if not (same_module or imported):
                continue
            for method in _methods(info):
                if any(
                    isinstance(node, ast.Name) and node.id == varname
                    for node in ast.walk(method.node)
                ):
                    users.add(info.name)
                    break
        return users


class MutableDefaultRule(_GraphRule):
    """RACE003: mutable default arguments on handler/layer methods."""

    rule_id = "RACE003"
    title = "mutable default argument on a handler/layer method"
    severity = Severity.ERROR

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        graph = code_graph_for(project)
        by_relpath = {m.relpath: m for m in project.src_modules}
        findings: List[Finding] = []
        seen: Set[Tuple[str, int]] = set()
        for root in (PROCESS_ROOT, LAYER_ROOT):
            for info in graph.subtypes_of(root):
                mod = by_relpath.get(info.relpath)
                if mod is None:
                    continue
                for method in _methods(info):
                    assert isinstance(
                        method.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    args = method.node.args
                    defaults = list(args.defaults) + [
                        d for d in args.kw_defaults if d is not None
                    ]
                    for default in defaults:
                        key = (mod.relpath, default.lineno)
                        if key in seen or not _is_mutable_value(default):
                            continue
                        seen.add(key)
                        findings.append(
                            self.finding(
                                mod,
                                default.lineno,
                                f"{info.name}.{method.name} has a mutable "
                                "default argument — the container is shared "
                                "across every call and every instance",
                                hint="default to None and create the "
                                "container inside the method",
                            )
                        )
        return findings


class StampAfterSendRule(_GraphRule):
    """RACE004: mutating a payload object after handing it to ``send``."""

    rule_id = "RACE004"
    title = "payload mutated after send (delivery is by reference)"
    severity = Severity.ERROR

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        graph = code_graph_for(project)
        by_relpath = {m.relpath: m for m in project.src_modules}
        findings: List[Finding] = []
        seen_classes: Set[str] = set()
        for root in (PROCESS_ROOT, LAYER_ROOT):
            for info in graph.subtypes_of(root):
                if info.qualname in seen_classes:
                    continue
                seen_classes.add(info.qualname)
                mod = by_relpath.get(info.relpath)
                if mod is None:
                    continue
                for method in _methods(info):
                    findings.extend(
                        self._check_block(mod, info, method, method.node.body)
                    )
        return findings

    def _check_block(
        self,
        mod: SourceModule,
        info: ClassInfo,
        method: FunctionInfo,
        stmts: List[ast.stmt],
    ) -> List[Finding]:
        findings: List[Finding] = []
        sent: Dict[str, int] = {}  # var name -> send line
        for stmt in stmts:
            payload = self._sent_var(stmt)
            if payload is not None:
                sent.setdefault(payload, stmt.lineno)
            target = self._mutated_var(stmt)
            if target is not None and target in sent:
                findings.append(
                    self.finding(
                        mod,
                        stmt.lineno,
                        f"{info.name}.{method.name} mutates `{target}` "
                        f"after sending it (line {sent[target]}) — in-tick "
                        "delivery is by reference, so the receiver can "
                        "observe the post-send value",
                        hint="finish stamping the message before the send, "
                        "or send a copy",
                    )
                )
            for child in self._child_blocks(stmt):
                findings.extend(self._check_block(mod, info, method, child))
        return findings

    def _sent_var(self, stmt: ast.stmt) -> Optional[str]:
        if not isinstance(stmt, ast.Expr) or not isinstance(
            stmt.value, ast.Call
        ):
            return None
        call = stmt.value
        if not isinstance(call.func, ast.Attribute):
            return None
        table = SEND_ARG.get(call.func.attr)
        if table is None:
            return None
        index = table.get(len(call.args))
        if index is None:
            return None
        payload = call.args[index]
        if isinstance(payload, ast.Name):
            return payload.id
        return None

    def _mutated_var(self, stmt: ast.stmt) -> Optional[str]:
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                ):
                    return target.value.id
        return None

    def _child_blocks(self, stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks: List[List[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            child = getattr(stmt, name, None)
            if isinstance(child, list) and child and isinstance(
                child[0], ast.stmt
            ):
                blocks.append(child)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks


class LayerAliasRule(_GraphRule):
    """RACE005: a ProtocolLayer aliasing another layer's internal state."""

    rule_id = "RACE005"
    title = "protocol layer aliases another layer's internals"
    severity = Severity.ERROR
    root = LAYER_ROOT

    def check_class(
        self, graph: CodeGraph, mod: SourceModule, info: ClassInfo
    ) -> Iterable[Finding]:
        for method in _methods(info):
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                chain = self._pure_chain(node.value)
                if chain is None or len(chain) < 2:
                    continue
                first = chain[0]
                for candidate in sorted(
                    graph.attr_candidates(info.qualname, first)
                ):
                    if graph.is_subtype(candidate, LAYER_ROOT) or (
                        candidate.rsplit(".", 1)[-1] == "ProtocolStack"
                        or graph.is_subtype(candidate, STACK_ROOT)
                    ):
                        yield self.finding(
                            mod,
                            node.lineno,
                            f"{info.name}.{method.name} keeps a direct "
                            f"reference to `self.{'.'.join(chain)}` — "
                            "aliasing another layer's mutable state couples "
                            "the layers outside the send_down/receive_up "
                            "contract",
                            hint="go through the owning layer's methods "
                            "(or `stack.layer(name)` lookups) at use time "
                            "instead of capturing its internals",
                        )
                        break

    def _pure_chain(self, node: ast.AST) -> Optional[List[str]]:
        """``self.a.b.c`` -> ["a", "b", "c"]; None if not a pure chain."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and parts:
            return list(reversed(parts))
        return None


# Re-exported for fixture annotation resolution in tests.
__all__ = [
    "HiddenChannelRule",
    "SharedModuleStateRule",
    "MutableDefaultRule",
    "StampAfterSendRule",
    "LayerAliasRule",
]
