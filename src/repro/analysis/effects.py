"""Handler effect inference behind the ORD rules.

The paper's Fig. 5 argument is that the ordering substrate sees message
*arrival* order, not message *meaning*: two handlers that both overwrite
``self.running`` do not commute, and no causal multicast can know that.
This pass computes the missing half of that judgement — for every typed
or ``isinstance`` handler reachable through the flow graph, the set of
process attributes it reads and writes (through locals and ``self.``
helper-call chains), with each write classified by whether it commutes:

- ``assign`` — a plain overwrite (``self.state = payload.state``): last
  writer wins, so two concurrent deliveries race.  An assign *guarded* by
  a semantic test (an ``if`` that reads the payload or own state — the
  netnews dedup pattern) is treated as commuting: the application is
  defending itself at the ends, exactly the paper's Section 4 position.
- ``merge`` — commutative read-modify-write: ``+=``/``-=``/``|=`` and
  grow-only container calls (``append``/``add``/``update``/...).
- ``keyed`` — a store indexed by a payload-derived key
  (``self.store[payload.key] = ...``): concurrent deliveries of distinct
  messages land on distinct slots.
- ``destructive`` — ``pop``/``remove``/``clear``/``del``: consumes state
  that a retransmission or a not-yet-stable peer may still need (the
  input to ORD004's stability check).

Reads are recorded so ORD001 can flag the read-then-act half of the
Fig. 5 pattern.  The collector subclasses the flow graph's
``HandlerWalk``, the walker that also builds its same-tick edges, so it
narrows on ``isinstance``, resolves calls and marks sends
behind a timer callback *delayed* exactly as the graph does, and every
same-tick constructed send in a row is an edge of the graph
(``test_effect_sends_agree_with_flow_edges``).  It follows only
``self.`` helper chains, six frames deep; like the flow graph it
under-approximates — opaque calls contribute nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, TypeGuard

from repro.analysis.callgraph import ClassInfo, FunctionInfo, PROCESS_ROOT
from repro.analysis.flowgraph import FlowGraph, Frame, HandlerWalk, flow_graph_for
from repro.analysis.orders import MEMBER_ROOT, guarantee_env_for

#: write kinds in increasing order of commutativity trouble.
WRITE_KINDS = ("merge", "keyed", "assign", "destructive")

#: AugAssign operators that commute with themselves on numbers/sets.
_COMMUTING_OPS = (ast.Add, ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)

#: container methods that consume state.
_DESTRUCTIVE_METHODS = {"pop", "popitem", "popleft", "remove", "clear", "discard"}

#: grow-only/merge container methods.
_MERGE_METHODS = {
    "append", "appendleft", "add", "update", "extend", "insert",
    "setdefault", "push",
}

#: plumbing attributes that are identity/infrastructure, not app state.
INFRA_ATTRS = {
    "pid", "sim", "env", "network", "clock", "rng", "member", "group",
    "stack", "metrics", "logger",
}

@dataclass(frozen=True)
class AttrEffect:
    """One read or write of ``self.<attr>`` reachable from a handler."""

    attr: str
    kind: str  # "read" | one of WRITE_KINDS
    relpath: str
    lineno: int
    guarded: bool  # under a semantic (state/payload-reading) test
    payload_derived: bool  # the written value mentions the payload

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS

    @property
    def noncommuting(self) -> bool:
        """Does delivery order change the outcome of this write?"""
        return not self.guarded and self.kind in ("assign", "destructive")


@dataclass(frozen=True)
class SendEffect:
    """A message the handler can emit, with the primitive it used."""

    message: str
    via: str
    lineno: int
    delayed: bool


@dataclass
class HandlerEffect:
    """The effect row for one (process class, message type, handler)."""

    process: str  # owning class qualname
    process_name: str
    message: str
    context: str  # handler function qualname
    relpath: str
    lineno: int  # handler definition line
    effects: List[AttrEffect]
    sends: List[SendEffect]

    def reads(self) -> Set[str]:
        return {e.attr for e in self.effects if e.kind == "read"}

    def writes(self) -> Set[str]:
        return {e.attr for e in self.effects if e.is_write}

    def write_effects(self, attr: str) -> List[AttrEffect]:
        return [e for e in self.effects if e.is_write and e.attr == attr]

    def acts(self) -> bool:
        """Does this handler do anything order-observable after a read?"""
        return bool(self.writes()) or bool(self.sends)

    def to_json(self) -> Dict[str, object]:
        return {
            "process": self.process,
            "message": self.message,
            "context": self.context,
            "path": self.relpath,
            "line": self.lineno,
            "effects": [
                {
                    "attr": e.attr,
                    "kind": e.kind,
                    "line": e.lineno,
                    "guarded": e.guarded,
                    "payload_derived": e.payload_derived,
                }
                for e in self.effects
            ],
            "sends": [
                {
                    "message": s.message,
                    "via": s.via,
                    "line": s.lineno,
                    "delayed": s.delayed,
                }
                for s in self.sends
            ],
        }


class _EffectWalk(HandlerWalk):
    """The handler walk, collecting ``self.<attr>`` effects and sends."""

    max_depth = 6

    def __init__(self, flow: FlowGraph, owner: ClassInfo, message: str) -> None:
        super().__init__(flow, message)
        self._owner = owner
        self.effects: List[AttrEffect] = []
        self.sends: List[SendEffect] = []
        self._seen_effects: Set[Tuple[str, str, int]] = set()

    def run(self, func: FunctionInfo, payload: Optional[str]) -> None:
        self.visit(func, payload)
        self.effects.sort(key=lambda e: (e.relpath, e.lineno, e.attr, e.kind))
        self.sends.sort(key=lambda s: (s.lineno, s.message, s.via))

    # -- walker hooks -----------------------------------------------------------

    def guards(self, test: ast.expr, frame: Frame) -> bool:
        """A test that reads the payload or own state — the application
        checking semantics before acting, which makes the guarded write
        order-defensive rather than blind."""
        for child in ast.walk(test):
            if (
                frame.payload is not None
                and isinstance(child, ast.Name)
                and child.id == frame.payload
            ):
                return True
            if (
                _is_self_attr(child)
                and child.attr not in INFRA_ATTRS
                and not self._is_method(child.attr)
            ):
                return True
        return False

    def follows(self, call: ast.Call, delayed: bool) -> bool:
        # Only self.helper(...) chains: the callee's ``self`` is ours.
        return _is_self_attr(call.func)

    def send(
        self,
        message: Optional[str],
        via: str,
        call: ast.Call,
        frame: Frame,
        delayed: bool,
    ) -> None:
        self.sends.append(
            SendEffect(message=message or "<payload>", via=via,
                       lineno=call.lineno, delayed=delayed)
        )

    def statement(self, stmt: ast.stmt, frame: Frame, guarded: bool) -> None:
        consumed: Set[ast.AST] = set()
        if isinstance(stmt, ast.Assign):
            from_payload = self.derives(stmt.value, frame)
            for target in stmt.targets:
                self._write_target(
                    target, frame, guarded, from_payload, consumed,
                    value=stmt.value,
                )
                if isinstance(target, ast.Name) and from_payload:
                    frame.derived.add(target.id)
        elif isinstance(stmt, ast.AugAssign):
            self._write_target(
                stmt.target, frame, guarded, self.derives(stmt.value, frame),
                consumed, aug_merge=isinstance(stmt.op, _COMMUTING_OPS),
            )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._write_target(
                stmt.target, frame, guarded, self.derives(stmt.value, frame),
                consumed, value=stmt.value,
            )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr_node = _self_attr_of(target)
                if attr_node is not None:
                    consumed.add(attr_node)
                    self._record(
                        attr_node.attr, "destructive", attr_node.lineno,
                        guarded, False,
                    )
        self.scan(stmt, frame, guarded, consumed)

    def scan(
        self,
        node: ast.AST,
        frame: Frame,
        guarded: bool,
        consumed: Optional[Set[ast.AST]] = None,
    ) -> None:
        """Container writes on own state, then sends and helper calls, then
        reads of ``self.<attr>`` not already consumed as writes."""
        consumed = consumed if consumed is not None else set()
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and not self._container_write(
                child, guarded, consumed
            ):
                self.call(child, frame, guarded)
        for child in ast.walk(node):
            if (
                child not in consumed
                and _is_self_attr(child)
                and isinstance(child.ctx, ast.Load)
                and not self._is_method(child.attr)
            ):
                self._record(child.attr, "read", child.lineno, guarded, False)

    # -- classification ---------------------------------------------------------

    def _container_write(
        self, call: ast.Call, guarded: bool, consumed: Set[ast.AST]
    ) -> bool:
        """``self.<attr>.pop(...)`` / ``.append(...)``: a container write on
        own state, recorded instead of followed."""
        if not isinstance(call.func, ast.Attribute):
            return False
        attr_node = _self_attr_of(call.func.value)
        name = call.func.attr
        if attr_node is None or name not in _DESTRUCTIVE_METHODS | _MERGE_METHODS:
            return False
        consumed.add(attr_node)
        kind = "destructive" if name in _DESTRUCTIVE_METHODS else "merge"
        self._record(attr_node.attr, kind, call.lineno, guarded, False)
        return True

    def _write_target(
        self,
        target: ast.AST,
        frame: Frame,
        guarded: bool,
        from_payload: bool,
        consumed: Set[ast.AST],
        aug_merge: bool = False,
        value: Optional[ast.AST] = None,
    ) -> None:
        if _is_self_attr(target):
            consumed.add(target)
            if aug_merge or _is_join(value, target.attr):
                kind = "merge"
            else:
                kind = "assign"
            self._record(target.attr, kind, target.lineno, guarded, from_payload)
        elif isinstance(target, ast.Subscript):
            attr_node = _self_attr_of(target.value)
            if attr_node is None:
                return
            consumed.add(attr_node)
            if self.derives(target.slice, frame):
                kind = "keyed"
            elif aug_merge:
                kind = "merge"
            else:
                kind = "assign"
            self._record(attr_node.attr, kind, target.lineno, guarded, from_payload)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(
                    element, frame, guarded, from_payload, consumed, aug_merge
                )

    def _record(
        self, attr: str, kind: str, lineno: int, guarded: bool, derived: bool
    ) -> None:
        if attr in INFRA_ATTRS:
            return
        key = (attr, kind, lineno)
        if key in self._seen_effects:
            return
        self._seen_effects.add(key)
        self.effects.append(
            AttrEffect(
                attr=attr,
                kind=kind,
                relpath=self._owner.relpath,
                lineno=lineno,
                guarded=guarded,
                payload_derived=derived,
            )
        )

    def _is_method(self, attr: str) -> bool:
        return bool(self.flow.code.methods_for(self._owner.qualname, attr))


def _is_self_attr(node: ast.AST) -> TypeGuard[ast.Attribute]:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_attr_of(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``self.<attr>`` node of ``self.<attr>`` or ``self.<attr>[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return node if _is_self_attr(node) else None


def _is_join(value: Optional[ast.AST], attr: str) -> bool:
    """``self.x = max(self.x, ...)`` (or ``min``) — a commutative,
    idempotent join, not a last-writer-wins overwrite."""
    if not (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("max", "min")
    ):
        return False
    return any(
        _is_self_attr(arg) and arg.attr == attr for arg in value.args
    )


class EffectTable:
    """Effect rows for every handler on every ``Process`` subclass."""

    def __init__(self, flow: FlowGraph) -> None:
        self.flow = flow
        self.code = flow.code
        self.rows: List[HandlerEffect] = []
        self._by_process: Dict[str, List[HandlerEffect]] = {}
        self._build()

    def _build(self) -> None:
        seen: Set[Tuple[str, str, str]] = set()
        for site in sorted(
            self.flow.handlers, key=lambda h: (h.relpath, h.lineno, h.message)
        ):
            func = self.code.functions.get(site.context)
            if func is None or func.owner is None:
                continue
            owner = self.code.class_for(func.owner)
            if owner is None:
                continue
            # GroupMember subclasses Process, but in explicit-paths mode
            # (fixtures) the member module is not scanned, so the subtype
            # chain stops at the imported base — accept either root.
            if not (
                self.code.is_subtype(owner.qualname, PROCESS_ROOT)
                or self.code.is_subtype(owner.qualname, MEMBER_ROOT)
            ):
                continue
            key = (owner.qualname, site.message, func.qualname)
            if key in seen:
                continue
            seen.add(key)
            collector = _EffectWalk(self.flow, owner, site.message)
            collector.run(func, self.flow.payload_param(func, site))
            row = HandlerEffect(
                process=owner.qualname,
                process_name=owner.name,
                message=site.message,
                context=func.qualname,
                relpath=func.relpath,
                lineno=func.lineno,
                effects=collector.effects,
                sends=collector.sends,
            )
            self.rows.append(row)
            self._by_process.setdefault(owner.qualname, []).append(row)
        self.rows.sort(key=lambda r: (r.process, r.message, r.context))
        for rows in self._by_process.values():
            rows.sort(key=lambda r: (r.message, r.context))

    # -- queries ----------------------------------------------------------------

    def processes(self) -> List[str]:
        return sorted(self._by_process)

    def rows_for(self, process: str) -> List[HandlerEffect]:
        return list(self._by_process.get(process, []))

    def conflicts(
        self, a: HandlerEffect, b: HandlerEffect
    ) -> List[Tuple[str, str]]:
        """Attributes on which handling ``a.message`` and ``b.message`` in
        different orders can produce different states: sorted
        ``(attr, detail)`` pairs, empty when the handlers commute."""
        out: Dict[str, str] = {}
        for attr in sorted(a.writes() & b.writes()):
            a_nc = any(e.noncommuting for e in a.write_effects(attr))
            b_nc = any(e.noncommuting for e in b.write_effects(attr))
            if a_nc or b_nc:
                kinds = sorted(
                    {e.kind for e in a.write_effects(attr)}
                    | {e.kind for e in b.write_effects(attr)}
                )
                out[attr] = f"write/write ({'/'.join(kinds)})"
        for first, second in ((a, b), (b, a)):
            if not first.acts():
                continue
            for attr in sorted(first.reads()):
                if attr in out:
                    continue
                if any(e.noncommuting for e in second.write_effects(attr)):
                    out[attr] = (
                        f"read-then-act in {first.message} vs write in "
                        f"{second.message}"
                    )
        return sorted(out.items())

    def group_sent(self, message: str) -> bool:
        """Is there multicast/broadcast (or group-member) send evidence for
        ``message`` — i.e. can two members receive it concurrently?"""
        for site in self.flow.sends:
            if message not in self.code.mro_names(site.message):
                continue
            if "multicast" in site.via or "broadcast" in site.via:
                return True
            func = self.code.functions.get(site.context)
            if func is not None and func.owner is not None:
                if self.code.is_subtype(func.owner, MEMBER_ROOT):
                    return True
        return False

    def sender_contexts(self, message: str) -> Set[str]:
        """Distinct functions observed sending ``message``."""
        out: Set[str] = set()
        for site in self.flow.sends:
            if message in self.code.mro_names(site.message):
                out.add(site.context)
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro.analysis/effects-v1",
            "handlers": [row.to_json() for row in self.rows],
        }


def effect_table_for(project) -> EffectTable:  # type: ignore[no-untyped-def]
    """Build (or reuse) the effect table for a Project — shared between
    the ORD rules and the ``effects`` CLI subcommand."""
    cached = getattr(project, "_effect_table", None)
    if cached is not None:
        return cached
    table = EffectTable(flow_graph_for(project))
    project._effect_table = table
    return table


def effects_export(project) -> Dict[str, object]:  # type: ignore[no-untyped-def]
    """The full ``effects`` subcommand payload: effect rows, the guarantee
    table, per-process resolved guarantees, and raw conflict pairs (before
    any guarantee gating — the rules decide what is actually unsafe)."""
    table = effect_table_for(project)
    env = guarantee_env_for(project)
    payload = table.to_json()
    payload["guarantees"] = env.to_json()
    processes: Dict[str, object] = {}
    conflicts: List[Dict[str, object]] = []
    for process in table.processes():
        info = table.code.class_for(process)
        if info is None:
            continue
        guarantee = env.guarantee_for(info)
        processes[process] = guarantee.to_json()
        rows = table.rows_for(process)
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if a.message == b.message:
                    continue
                pairs = table.conflicts(a, b)
                if not pairs:
                    continue
                conflicts.append(
                    {
                        "process": process,
                        "a": a.message,
                        "b": b.message,
                        "attrs": [
                            {"attr": attr, "detail": detail}
                            for attr, detail in pairs
                        ],
                        "group_multicast": table.group_sent(a.message)
                        and table.group_sent(b.message),
                        "order": guarantee.order_name,
                    }
                )
    payload["processes"] = processes
    payload["conflicts"] = conflicts
    return payload


__all__ = [
    "AttrEffect",
    "EffectTable",
    "HandlerEffect",
    "SendEffect",
    "INFRA_ATTRS",
    "WRITE_KINDS",
    "effect_table_for",
    "effects_export",
]
