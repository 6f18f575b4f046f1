"""Determinism rules (``DET*``).

Everything here guards the invariant stated in ``DESIGN.md``: a run is a
pure function of ``(seed, parameters)``.  The rules target the ways Python
quietly breaks that — wall clocks, the process-global ``random`` state and
salted-hash iteration order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.astutil import call_name, import_bindings
from repro.analysis.finding import Finding, Severity
from repro.analysis.rules import Rule
from repro.analysis.source import SourceModule

#: Module prefixes exempt from the wall-clock rule: the asyncio runtime is
#: *supposed* to read real clocks.
WALL_CLOCK_ALLOWED = ("repro.runtime",)

#: Module prefixes allowed to touch the ``random`` module directly: the
#: kernel constructs the one seeded generator; the runtime mirrors it.
RANDOM_ALLOWED = ("repro.sim.kernel", "repro.runtime")

WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.process_time": "time.process_time()",
    "time.gmtime": "time.gmtime()",
    "time.localtime": "time.localtime()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}

def _module_allowed(mod: SourceModule, prefixes: Tuple[str, ...]) -> bool:
    return any(
        mod.module == p or mod.module.startswith(p + ".") for p in prefixes
    )


class WallClockRule(Rule):
    """DET001: wall-clock reads make a run depend on when it executes.

    Every wall-clock call outside ``repro.runtime`` is an error, so a
    tracer that timestamps protocol events with a real clock cannot land
    in a protocol package.
    """

    rule_id = "DET001"
    title = "wall-clock call in deterministic code"
    severity = Severity.ERROR

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if _module_allowed(mod, WALL_CLOCK_ALLOWED):
            return
        imports = import_bindings(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    mod,
                    node.lineno,
                    f"wall-clock call {WALL_CLOCK_CALLS[name]}",
                    hint="use the simulator's virtual time (sim.now); "
                    "wall-clock integrations belong in repro.runtime",
                )


class UnseededRandomRule(Rule):
    """DET002: draws from the process-global ``random`` state.

    ``random.Random(seed)`` construction is fine anywhere — the rule flags
    module-level draws (``random.random()``, ``random.choice(...)``) whose
    state is shared, unseeded, and invisible to the experiment envelope.
    """

    rule_id = "DET002"
    title = "unseeded random-module draw"
    severity = Severity.ERROR

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if _module_allowed(mod, RANDOM_ALLOWED):
            return
        imports = import_bindings(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if (
                name
                and name.startswith("random.")
                and name != "random.Random"
            ):
                yield self.finding(
                    mod,
                    node.lineno,
                    f"draw from the global random module ({name})",
                    hint="draw from the kernel's seeded generator "
                    "(sim.rng / kernel.rng) instead",
                )


# -- DET003: unordered iteration ------------------------------------------------

#: Methods whose call order is observable in program output: list building,
#: network transmission, and event scheduling.
ORDERED_SINKS = {
    "append", "extend", "appendleft", "insert_ordered",
    "send", "send_many", "send_peers", "send_control", "multicast", "post",
    "broadcast",
    "set_timer", "call_later", "call_at", "post_at", "schedule", "enqueue",
    "put", "emit", "write",
}

#: The subset whose effects cross the process/network/scheduler boundary.
#: Dict views (insertion-ordered, hence deterministic under CPython) are
#: only flagged when they feed these.
ORDER_VISIBLE_SINKS = ORDERED_SINKS - {"append", "extend", "appendleft", "write"}

#: Calls that consume an iterable without observing its order.
COMMUTATIVE_CONSUMERS = {
    "sum", "max", "min", "any", "all", "len", "set", "frozenset",
    "sorted", "Counter", "collections.Counter", "dict",
}

_TRANSPARENT_WRAPPERS = {"list", "tuple", "iter", "reversed", "enumerate"}


def unordered_kind(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Classify an iterable expression: "set", "dictview", or None.

    Purely syntactic — a bare name bound to a set elsewhere is not caught
    (no type inference); the rule trades recall for zero false positives on
    names.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        left = unordered_kind(node.left, imports)
        right = unordered_kind(node.right, imports)
        if "set" in (left, right):
            return "set"
        return None
    if isinstance(node, ast.Call):
        name = call_name(node, imports)
        if name in {"set", "frozenset"}:
            return "set"
        if name == "sorted":
            return None
        if name in _TRANSPARENT_WRAPPERS and node.args:
            return unordered_kind(node.args[0], imports)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"keys", "values", "items"}
            and not node.args
            and not node.keywords
        ):
            return "dictview"
    return None


def _sink_calls(body: List[ast.stmt], wanted: set) -> List[Tuple[int, str]]:
    hits: List[Tuple[int, str]] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in wanted
            ):
                hits.append((node.lineno, node.func.attr))
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                hits.append((node.lineno, "yield"))
    return hits


class UnorderedIterationRule(Rule):
    """DET003: unordered iteration feeding an ordering-sensitive sink.

    ``set`` iteration order depends on ``PYTHONHASHSEED`` for str keys — an
    unordered loop that appends, sends, or schedules produces a different
    trace per hash seed.  Dict views are insertion-ordered (deterministic),
    but a view loop that *sends or schedules* makes delivery order an
    accident of insertion history, so it is flagged at warning severity.
    """

    rule_id = "DET003"
    title = "unordered iteration into an ordering-sensitive sink"
    severity = Severity.ERROR

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        imports = import_bindings(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(mod, node, imports)
            elif isinstance(node, ast.ListComp):
                yield from self._check_listcomp(mod, node, imports)
            elif isinstance(node, ast.Call):
                yield from self._check_consumer(mod, node, imports)

    def _check_loop(
        self, mod: SourceModule, node: "ast.For | ast.AsyncFor",
        imports: Dict[str, str],
    ) -> Iterable[Finding]:
        kind = unordered_kind(node.iter, imports)
        if kind is None:
            return
        wanted = ORDERED_SINKS if kind == "set" else ORDER_VISIBLE_SINKS
        sinks = _sink_calls(node.body, wanted)
        if not sinks:
            return
        sink_names = ", ".join(sorted({f".{s}()" for _, s in sinks}))
        yield self._emit(mod, node.lineno, kind, sink_names)

    def _check_listcomp(
        self, mod: SourceModule, node: ast.ListComp, imports: Dict[str, str]
    ) -> Iterable[Finding]:
        for gen in node.generators:
            if unordered_kind(gen.iter, imports) == "set":
                yield self._emit(mod, node.lineno, "set", "list construction")

    def _check_consumer(
        self, mod: SourceModule, node: ast.Call, imports: Dict[str, str]
    ) -> Iterable[Finding]:
        """``list(set(...))`` / ``", ".join(... for x in set(...))``."""
        name = call_name(node, imports)
        is_join = isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        if name not in {"list", "tuple"} and not is_join:
            return
        for arg in node.args:
            kind = None
            if isinstance(arg, ast.GeneratorExp):
                for gen in arg.generators:
                    kind = kind or unordered_kind(gen.iter, imports)
            else:
                kind = unordered_kind(arg, imports)
            if kind == "set":
                sink = "str join" if is_join else f"{name}() construction"
                yield self._emit(mod, node.lineno, "set", sink)

    def _emit(
        self, mod: SourceModule, line: int, kind: str, sinks: str
    ) -> Finding:
        if kind == "set":
            return self.finding(
                mod, line,
                f"set iteration feeds ordering-sensitive sink: {sinks}",
                hint="wrap the iterable in sorted(...) to pin the order",
            )
        return self.finding(
            mod, line,
            f"dict-view iteration feeds network/schedule sink: {sinks}; "
            "order is insertion history, not a protocol decision",
            hint="iterate a canonical ordering (sorted(...) or the view's "
            "member list) so send order is explicit",
            severity=Severity.WARNING,
        )
