"""The delivery-guarantee model behind the ORD rules.

The paper's Section 2 taxonomy is a lattice of delivery orders — no
guarantee ⊂ FIFO ⊂ causal ⊂ total — plus the orthogonal *stability*
property (a message is stable once every member is known to hold it) that
Section 3.1's "can't say for sure" argument turns on.  This module
attaches that lattice to the classes under analysis, so the ORD rules can
ask "is the order this handler assumes actually promised by the stack the
class is configured with?".  They read only the order; ``stable`` is
carried because :class:`~repro.catocs.stack.Guarantee` has it.

What a spec promises is declared by the layers themselves
(:func:`repro.catocs.stack.guarantee`: the top layer's ``order``, and
``stable`` if any layer is), so aliases, layer order, validity and the
promise always agree with the runtime registry.  A spec the registry
refuses resolves to ``None`` here and configures nothing.

Guarantees are attached to classes by lexical resolution, weakest wins:

1. spec strings written inside the class's own methods
   (``ordering="causal"`` in a ``super().__init__`` call);
2. spec strings anywhere in the defining module;
3. the ``GroupMember`` signature default (``"causal"``) for member
   subclasses; bare ``Process`` subclasses exchange unstacked
   ``Process.send`` datagrams and get :data:`PLAIN_SEND` — the simulated
   network jitters per-packet latency, so even FIFO is not promised.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import ClassInfo, CodeGraph, code_graph_for
from repro.analysis.source import SourceModule
from repro.catocs.stack import ORDER_NONE, Guarantee, guarantee

#: keyword arguments whose string value names a discipline or spec
#: (``stack`` is the socket host's name for ``ordering``).
SPEC_KEYWORDS = ("discipline", "spec", "ordering", "stack", "stack_spec")

#: qualified roots the guarantee environment distinguishes.
MEMBER_ROOT = "repro.catocs.member.GroupMember"

#: the ``GroupMember.__init__`` signature default.
DEFAULT_MEMBER_SPEC = "causal"


#: Unstacked ``Process.send`` traffic: per-packet jittered latency, no
#: dedup, no retention — the weakest point of the lattice.  The first
#: field is a *description*, not a spec string.
PLAIN_SEND = Guarantee("<plain send>", ORDER_NONE, False)


def resolve(spec: str) -> Optional[Guarantee]:
    """``Guarantee`` for a discipline alias or explicit spec string;
    ``None`` when the registry refuses it."""
    try:
        return guarantee(spec)
    except ValueError:
        return None


def meet(guarantees: Iterable[Guarantee]) -> Optional[Guarantee]:
    """The weakest of several guarantees (lattice meet, ``stable`` ANDed)."""
    weakest: Optional[Guarantee] = None
    for g in guarantees:
        if weakest is None:
            weakest = g
            continue
        weakest = Guarantee(
            spec=g.spec if g.order < weakest.order else weakest.spec,
            order=min(g.order, weakest.order),
            stable=g.stable and weakest.stable,
        )
    return weakest


def spec_strings_in(tree: ast.AST) -> List[Tuple[str, int]]:
    """Candidate spec strings under ``tree``: keyword arguments named in
    :data:`SPEC_KEYWORDS` and defaults of parameters so named.  Strings
    that do not resolve are dropped later: a bad spec raises ``ValueError``
    from ``resolve_spec`` wherever the program builds it."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg in SPEC_KEYWORDS
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    out.append((kw.value.value, kw.value.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = list(args.args)
            for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                    args.defaults):
                if (
                    arg.arg in SPEC_KEYWORDS
                    and isinstance(default, ast.Constant)
                    and isinstance(default.value, str)
                ):
                    out.append((default.value, default.lineno))
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if (
                    kw_default is not None
                    and arg.arg in SPEC_KEYWORDS
                    and isinstance(kw_default, ast.Constant)
                    and isinstance(kw_default.value, str)
                ):
                    out.append((kw_default.value, kw_default.lineno))
    return out


class GuaranteeEnv:
    """class qualname -> the weakest guarantee it is configured with."""

    def __init__(self, graph: CodeGraph, modules: Sequence[SourceModule]) -> None:
        self._graph = graph
        self._module_specs: Dict[str, List[str]] = {}
        for mod in modules:
            specs = [s for s, _ in spec_strings_in(mod.tree)]
            self._module_specs[mod.relpath] = specs
        self._cache: Dict[str, Guarantee] = {}

    def guarantee_for(self, info: ClassInfo) -> Guarantee:
        cached = self._cache.get(info.qualname)
        if cached is not None:
            return cached
        result = self._compute(info)
        self._cache[info.qualname] = result
        return result

    def _compute(self, info: ClassInfo) -> Guarantee:
        if not self._graph.is_subtype(info.qualname, MEMBER_ROOT):
            return PLAIN_SEND
        # 1. spec strings written inside the class's own methods.
        class_specs: List[str] = []
        for name in sorted(info.methods):
            class_specs.extend(
                s for s, _ in spec_strings_in(info.methods[name].node)
            )
        resolved = self._resolve_all(class_specs)
        if resolved:
            met = meet(resolved)
            assert met is not None
            return met
        # 2. spec strings anywhere in the defining module.
        resolved = self._resolve_all(self._module_specs.get(info.relpath, []))
        if resolved:
            met = meet(resolved)
            assert met is not None
            return met
        # 3. the GroupMember signature default.
        fallback = resolve(DEFAULT_MEMBER_SPEC)
        return fallback if fallback is not None else PLAIN_SEND

    def _resolve_all(self, specs: Iterable[str]) -> List[Guarantee]:
        out: List[Guarantee] = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            found = resolve(spec)
            if found is not None:
                out.append(found)
        return out


def guarantee_env_for(project) -> GuaranteeEnv:  # type: ignore[no-untyped-def]
    """Build (or reuse) the guarantee environment for a Project."""
    cached = getattr(project, "_guarantee_env", None)
    if cached is not None:
        return cached
    env = GuaranteeEnv(code_graph_for(project), project.src_modules)
    project._guarantee_env = env
    return env


__all__ = [
    "GuaranteeEnv",
    "PLAIN_SEND",
    "MEMBER_ROOT",
    "SPEC_KEYWORDS",
    "guarantee_env_for",
    "meet",
    "resolve",
    "spec_strings_in",
]
