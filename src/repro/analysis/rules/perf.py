"""Hot-path performance rules (``PERF*``).

PR 7 bought the kernel its throughput (flyweight events, a free-list, one
fused pop/fire/recycle loop over C ``heapq``, ~2M ev/s) by hand; nothing
guarded those invariants statically — one convenience refactor
re-introducing a per-event dict or a per-iteration allocation would erode
the floor one accepted diff at a time.  These rules lock the invariants
in.  The module-wide rules (PERF001, PERF005) are scoped to the **hot modules**
(:data:`HOT_MODULE_PREFIXES`); the loop-frame rules (PERF002-004) to **hot
functions** wherever they live: functions named in the curated
:data:`HOT_FUNCTIONS` manifest or marked in source with a ``# repro: hot``
comment on (or immediately above) their ``def`` line.  A manifest entry
for a module outside the hot prefixes therefore puts that one function
under the loop rules without sweeping its whole module for ``__slots__``.

A file outside the hot packages can opt in wholesale with a
``# repro: hot-module`` comment anywhere in the file — that is how the
fixture corpus (whose files have no dotted module name) exercises the
family, and how a future hot module outside the four packages joins the
regime without editing this file.

All PERF findings are warnings: they flag costs, not incorrectness.  The
gate still fails on them (severity orders the report, it does not soften
the gate), so every hit is either fixed or carries a justified
``# repro: ignore[PERF...]`` suppression.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import call_name, dotted_name, import_bindings
from repro.analysis.finding import Finding, Severity
from repro.analysis.rules import Rule
from repro.analysis.rules.determinism import WALL_CLOCK_CALLS, _module_allowed
from repro.analysis.source import SourceModule

#: The modules whose steady-state loops dominate sim wall clock: the event
#: kernel + network + process dispatch, the protocol-stack pipeline, the
#: dense clock hot path, and the real-socket transport.
HOT_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.sim",
    "repro.catocs.stack",
    "repro.ordering.dense",
    "repro.runtime.udp",
)

#: Curated per-module manifest of hot functions (``Class.method`` or bare
#: function qualnames).  These are the frames the bench ledger's gated
#: numbers run through; a function can also opt in at the definition site
#: with ``# repro: hot``.  The ``catocs.transport``/``catocs.messages``/
#: ``ordering.matrix`` entries are where perfbench's per-layer attribution
#: puts most of a causal delivery (docs/PERFORMANCE.md, "Where a
#: delivery's time goes"); the ``runtime.codec`` entry is what runs once per
#: datagram over sockets.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro.sim.kernel": frozenset({
        "Simulator.run", "Simulator._cancel",
        "Simulator.call_later", "Simulator.call_at",
    }),
    "repro.sim.network": frozenset({
        "Network.send", "Network.multicast", "Network._deliver",
        # The byte model: the dispatch and every sizer behind it.  _classify
        # and _by_shape run once per payload type and are left out.
        "estimate_size", "counts_size", "_size_one", "_size_eight", "_size_str",
        "_size_hook", "_sum_sizes", "_size_items", "_size_dict", "_size_object",
        "_size_slotted", "_size_instance",
    }),
    "repro.sim.process": frozenset({
        "Process.dispatch", "Process.send", "Process.send_many",
        "Process._receive_packet", "Process._fire_timer",
    }),
    "repro.catocs.stack": frozenset({
        "ProtocolStack.broadcast", "ProtocolStack.transmit",
        "ProtocolStack.receive_data", "ProtocolStack.on_control",
        "BatchLayer.enqueue", "BatchLayer._flush",
    }),
    "repro.catocs.transport": frozenset({
        "StabilityLayer.buffer_message", "StabilityLayer.check_stability",
        "StabilityLayer.absorb_ack_vector", "StabilityLayer.publish_own_counts",
        "DedupRepairLayer.receive_up",
    }),
    "repro.catocs.ordering_layers": frozenset({
        "TotalAgreedOrdering._drain",
    }),
    "repro.catocs.messages": frozenset({
        "DataMessage.size_bytes",
    }),
    "repro.ordering.matrix": frozenset({
        "MatrixClock.update_row", "MatrixClock.set_component",
        "MatrixClock._left_minimum",
    }),
    "repro.ordering.vector": frozenset({
        "VectorClock.size_bytes",
    }),
    "repro.ordering.dense": frozenset({
        "DenseVectorClock.stamped", "DenseVectorClock.advance",
        "DenseVectorClock.merge_in", "DenseVectorClock.__le__",
        "DenseVectorClock.concurrent_with", "DenseVectorClock.size_bytes",
    }),
    "repro.runtime.codec": frozenset({
        "encode_datagram", "decode_datagram", "_frame", "_parse",
        "_write", "_read", "_write_data", "_read_data",
        "_counts_body", "_read_counts",
    }),
    "repro.runtime.udp": frozenset({
        "UdpNetwork.send", "UdpNetwork.multicast", "UdpNetwork._transmit",
        "UdpNetwork._on_datagram",
    }),
}

#: ``# repro: hot`` on the ``def`` line or the line above it marks one
#: function hot; ``# repro: hot-module`` anywhere marks the whole file.
_HOT_FN_RE = re.compile(r"#\s*repro:\s*hot(?!-)")
_HOT_MODULE_RE = re.compile(r"#\s*repro:\s*hot-module")

#: PERF003 fires when one attribute chain is re-resolved at least this many
#: times inside a single hot loop.
ATTR_CHAIN_THRESHOLD = 3

#: PERF005's call set: everything DET001 recognises, plus ``time.sleep``
#: (not a clock *read*, but equally a wall-clock dependency on a hot path).
WALLCLOCK_HOT_CALLS: Dict[str, str] = {
    **WALL_CLOCK_CALLS,
    "time.sleep": "time.sleep()",
}

#: Base-class names that exempt a class from PERF001 even when they cannot
#: be resolved to a local definition (exception hierarchies and typing
#: protocols are not hot-path instance factories).
_EXEMPT_BASE_NAMES = {
    "Exception", "BaseException", "Protocol", "ABC", "Enum", "IntEnum",
    "StrEnum", "Flag", "NamedTuple", "TypedDict", "Generic", "type",
}


def is_hot_module(mod: SourceModule) -> bool:
    """Hot by dotted-module prefix, or by the ``# repro: hot-module`` marker."""
    if _module_allowed(mod, HOT_MODULE_PREFIXES):
        return True
    return bool(_HOT_MODULE_RE.search(mod.text))


def _has_fn_marker(mod: SourceModule, node: ast.AST) -> bool:
    for lineno in (node.lineno, node.lineno - 1):
        if _HOT_FN_RE.search(mod.source_line(lineno)):
            return True
    return False


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """Yield ``(qualname, node)`` for every function, depth-first.

    Qualnames are ``Class.method`` for methods, bare names for module-level
    functions, and ``outer.<locals>.inner`` never appears — nested
    functions are qualified through their parents so the manifest can name
    them if it ever needs to.
    """

    def walk(nodes: Iterable[ast.stmt], prefix: str) -> Iterator[
        Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]
    ]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield qual, node
                yield from walk(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def hot_functions(
    mod: SourceModule,
) -> List[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """Functions in ``mod`` subject to the loop-frame rules (PERF002-004)."""
    manifest = HOT_FUNCTIONS.get(mod.module, frozenset())
    if not manifest and not _HOT_FN_RE.search(mod.text):
        return []
    out = []
    for qual, node in iter_functions(mod.tree):
        if qual in manifest or _has_fn_marker(mod, node):
            out.append((qual, node))
    return out


def _iter_loops(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator["ast.For | ast.AsyncFor | ast.While"]:
    """Loops belonging to ``fn``'s own frame (nested defs are their own
    frames — their loops are only hot if *they* are marked hot)."""

    def stmts(nodes: Iterable[ast.stmt]) -> Iterator[
        "ast.For | ast.AsyncFor | ast.While"
    ]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield node
            for field in ("body", "orelse", "finalbody"):
                yield from stmts(getattr(node, field, []) or [])
            for handler in getattr(node, "handlers", []) or []:
                yield from stmts(handler.body)

    yield from stmts(fn.body)


def _loop_frame_nodes(
    loop: "ast.For | ast.AsyncFor | ast.While",
) -> Iterator[ast.AST]:
    """Every node evaluated once per iteration: the body (and a ``while``
    test), skipping nested function frames and the cold ``raise``/``assert``
    paths."""
    roots: List[ast.AST] = list(loop.body)
    if isinstance(loop, ast.While):
        roots.append(loop.test)

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Raise, ast.Assert)):
            return
        yield node
        for child in ast.iter_child_nodes(node):
            yield from walk(child)

    for root in roots:
        yield from walk(root)


# -- PERF001 -------------------------------------------------------------------


class SlotsRule(Rule):
    """PERF001: a class defined in a hot module without ``__slots__``.

    Every instance of a dict-backed class costs an extra allocation and a
    pointer-chasing attribute load on the paths the bench ledger gates.
    The rule exempts classes whose bases it cannot see (imported bases may
    lack ``__slots__`` themselves, which would make a local declaration
    cosmetic) and classes whose *local* base is already dict-backed (the
    base carries the finding; flagging the subclass too would cascade).
    """

    rule_id = "PERF001"
    title = "hot-path class without __slots__"
    severity = Severity.WARNING

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if not is_hot_module(mod):
            return
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(mod.tree)
            if isinstance(node, ast.ClassDef)
        }
        slotted = {
            name for name, node in classes.items() if _declares_slots(node)
        }
        for name in sorted(classes):
            node = classes[name]
            if name in slotted:
                continue
            if not self._enforceable(node, classes, slotted):
                continue
            yield self.finding(
                mod, node.lineno,
                f"hot-path class {name} has no __slots__ "
                "(each instance carries a per-object __dict__)",
                hint="declare __slots__ = (...) (or @dataclass(slots=True)); "
                "if instances must stay open (e.g. tests monkeypatch "
                "attributes), suppress with a justification",
            )

    @staticmethod
    def _enforceable(
        node: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        slotted: Set[str],
    ) -> bool:
        for base in node.bases:
            name = dotted_name(base)
            if name is None:
                return False
            tail = name.rsplit(".", 1)[-1]
            if tail in _EXEMPT_BASE_NAMES or tail.endswith(
                ("Error", "Exception", "Warning")
            ):
                return False
            if name == "object":
                continue
            if name in classes:
                if name not in slotted:
                    # The local base is dict-backed and gets its own
                    # finding; a subclass __slots__ would change nothing.
                    return False
                continue
            return False  # imported/unresolvable base: layout not ours
        return True


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = dotted_name(deco.func)
            if name and name.rsplit(".", 1)[-1] == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


# -- PERF002 -------------------------------------------------------------------

_ALLOC_KINDS: Tuple[Tuple[type, str], ...] = (
    (ast.ListComp, "list comprehension"),
    (ast.SetComp, "set comprehension"),
    (ast.DictComp, "dict comprehension"),
    (ast.GeneratorExp, "generator expression"),
    (ast.Lambda, "lambda"),
    (ast.JoinedStr, "f-string"),
    (ast.Dict, "dict literal"),
    (ast.List, "list literal"),
    (ast.Set, "set literal"),
)


class HotLoopAllocRule(Rule):
    """PERF002: a fresh allocation in every iteration of a hot loop.

    Comprehensions, container literals, lambdas and f-strings each build a
    new object per iteration; in the drain/dispatch loops those are the
    allocations the flyweight-event rework removed.
    """

    rule_id = "PERF002"
    title = "per-iteration allocation in a hot loop"
    severity = Severity.WARNING

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for qual, fn in hot_functions(mod):
            seen: Set[int] = set()
            for loop in _iter_loops(fn):
                for node in _loop_frame_nodes(loop):
                    # id() as a within-traversal node-identity key: nested
                    # loops revisit the same AST objects, and the ids never
                    # leave this walk, so address instability is harmless.
                    if id(node) in seen:  # repro: ignore[DET004]
                        continue
                    for kind, label in _ALLOC_KINDS:
                        if isinstance(node, kind):
                            seen.add(id(node))
                            yield self.finding(
                                mod, node.lineno,
                                f"{label} allocated every iteration of a "
                                f"hot loop in {qual}",
                                hint="hoist the allocation out of the loop, "
                                "reuse a preallocated buffer, or move the "
                                "work off the hot path",
                            )
                            break


# -- PERF003 -------------------------------------------------------------------


class AttrChainRule(Rule):
    """PERF003: one attribute chain re-resolved many times in a hot loop.

    ``self.a.b`` costs two dict probes per evaluation; a chain the loop
    never rebinds can be bound to a local once, before the loop — the
    aliasing idiom ``Simulator.run`` already uses.
    """

    rule_id = "PERF003"
    title = "attribute chain re-resolved in a hot loop"
    severity = Severity.WARNING

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for qual, fn in hot_functions(mod):
            for loop in _iter_loops(fn):
                yield from self._check_loop(mod, qual, loop)

    def _check_loop(
        self,
        mod: SourceModule,
        qual: str,
        loop: "ast.For | ast.AsyncFor | ast.While",
    ) -> Iterable[Finding]:
        counts: Dict[str, int] = {}
        first: Dict[str, ast.Attribute] = {}
        #: (line, col) -> longest chain counted at that position.  The walk
        #: is pre-order, so the outermost Attribute of a spine arrives
        #: first; its sub-chains share its start position and are skipped.
        outer_at: Dict[Tuple[int, int], str] = {}
        written: Set[str] = set()
        rebound_roots: Set[str] = set()
        for node in _loop_frame_nodes(loop):
            if isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain is None:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    written.add(chain)
                    continue
                pos = (node.lineno, node.col_offset)
                outer = outer_at.get(pos)
                if outer is not None and outer.startswith(chain + "."):
                    continue  # inner link of an already-counted spine
                outer_at[pos] = chain
                counts[chain] = counts.get(chain, 0) + 1
                first.setdefault(chain, node)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                rebound_roots.add(node.id)
        # Loop targets rebind per iteration too.
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(loop.target):
                if isinstance(sub, ast.Name):
                    rebound_roots.add(sub.id)
        for chain in sorted(counts):
            n = counts[chain]
            if n < ATTR_CHAIN_THRESHOLD:
                continue
            if chain in written:
                continue
            root = chain.split(".", 1)[0]
            if root in rebound_roots:
                continue
            node = first[chain]
            yield self.finding(
                mod, node.lineno,
                f"attribute chain '{chain}' resolved {n} times in a hot "
                f"loop in {qual}",
                hint=f"bind it to a local before the loop "
                f"(e.g. {chain.rsplit('.', 1)[-1].lstrip('_')} = {chain})",
            )


# -- PERF004 -------------------------------------------------------------------


class HotLoopFrameRule(Rule):
    """PERF004: a ``try``/``except`` or an ``isinstance`` ladder inside a
    hot loop.

    Both patterns put per-iteration control-flow machinery where the
    steady state should be a dict probe: exception handlers belong around
    the loop (or replaced by a guard), and type ladders belong in a
    ``type -> handler`` dispatch table (what ``Process.dispatch`` does).
    """

    rule_id = "PERF004"
    title = "try/except or isinstance ladder in a hot loop"
    severity = Severity.WARNING

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        for qual, fn in hot_functions(mod):
            for loop in _iter_loops(fn):
                yield from self._check_loop(mod, qual, loop)

    def _check_loop(
        self,
        mod: SourceModule,
        qual: str,
        loop: "ast.For | ast.AsyncFor | ast.While",
    ) -> Iterable[Finding]:
        consumed: Set[int] = set()
        for node in _loop_frame_nodes(loop):
            if isinstance(node, ast.Try):
                yield self.finding(
                    mod, node.lineno,
                    f"try/except inside a hot loop in {qual}",
                    hint="hoist the try around the loop or replace it with "
                    "a guard test on the steady-state path",
                )
            elif (isinstance(node, ast.If)
                  # Same within-walk node-identity idiom as PERF002 above.
                  and id(node) not in consumed):  # repro: ignore[DET004]
                ladder = self._ladder(node, consumed)
                if ladder >= 2:
                    yield self.finding(
                        mod, node.lineno,
                        f"isinstance ladder ({ladder} arms) inside a hot "
                        f"loop in {qual}",
                        hint="dispatch through a type-keyed dict (memoized "
                        "per concrete type) instead of a per-iteration "
                        "isinstance chain",
                    )

    @staticmethod
    def _ladder(node: ast.If, consumed: Set[int]) -> int:
        """Length of the isinstance if/elif chain rooted at ``node``; marks
        every chained ``If`` consumed so inner links are not re-reported."""
        arms = 0
        current: Optional[ast.If] = node
        while current is not None:
            consumed.add(id(current))
            if not _test_has_isinstance(current.test):
                break
            arms += _isinstance_count(current.test)
            nxt = current.orelse
            current = (
                nxt[0]
                if len(nxt) == 1 and isinstance(nxt[0], ast.If)
                else None
            )
        return arms


def _test_has_isinstance(test: ast.expr) -> bool:
    return _isinstance_count(test) > 0


def _isinstance_count(test: ast.expr) -> int:
    return sum(
        1
        for sub in ast.walk(test)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "isinstance"
    )


# -- PERF005 -------------------------------------------------------------------


class HotWallClockRule(Rule):
    """PERF005: a wall-clock read (or ``time.sleep``) in a hot module.

    DET001 already *errors* on wall clocks in deterministic code; this
    rule covers the hot modules DET001 allowlists (``repro.runtime.udp``
    owns real sockets, so it is allowed to touch real time) where the
    right time source still is the injected clock — ``clock.now`` is a
    cached attribute read, ``time.time()`` is a syscall per packet.
    """

    rule_id = "PERF005"
    title = "wall-clock call on a hot path"
    severity = Severity.WARNING

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        if not is_hot_module(mod):
            return
        imports = import_bindings(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name in WALLCLOCK_HOT_CALLS:
                yield self.finding(
                    mod, node.lineno,
                    f"hot-path wall-clock call "
                    f"{WALLCLOCK_HOT_CALLS[name]}",
                    hint="read the injected clock (sim.now / clock.now) or "
                    "reuse a timestamp cached outside the hot path",
                )
