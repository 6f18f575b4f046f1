"""The delivery-guarantee model behind the ORD rules.

The paper's Section 2 taxonomy is a lattice of delivery orders — no
guarantee ⊂ FIFO ⊂ causal ⊂ total — plus the orthogonal *stability*
property (a message is stable once every member is known to hold it) that
Section 3.1's "can't say for sure" argument turns on.  This module maps
each registered discipline or explicit spec string onto that lattice, so
the ORD rules can ask "is the order this handler assumes actually promised
by the stack the class is configured with?".

The mapping is deliberately hybrid: the ordering *level* of a layer name
comes from a small table over the built-in disciplines, but spec
resolution goes through the real registry
(:func:`repro.catocs.stack.resolve_spec`) so aliases, layer order and
validity always agree with the runtime.  A layer the table does not know
is treated as promising **nothing** — the model only under-claims, so a
new exotic ordering layer can never silence a real finding.

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
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import ClassInfo, CodeGraph, code_graph_for
from repro.analysis.source import SourceModule

#: The order lattice, bottom to top.
ORDER_NONE = 0
ORDER_FIFO = 1
ORDER_CAUSAL = 2
ORDER_TOTAL = 3

ORDER_NAMES = {
    ORDER_NONE: "none",
    ORDER_FIFO: "fifo",
    ORDER_CAUSAL: "causal",
    ORDER_TOTAL: "total",
}

#: ordering-layer name -> lattice level.  Unknown layers fall to NONE.
LAYER_ORDER: Dict[str, int] = {
    "raw": ORDER_NONE,
    "fifo": ORDER_FIFO,
    "causal": ORDER_CAUSAL,
    "hybrid-causal": ORDER_CAUSAL,
    "total-seq": ORDER_TOTAL,
    "total-agreed": ORDER_TOTAL,
}

#: layers that retain messages until the group-wide stability horizon
#: (``hybrid-causal`` keeps its own sender-side retention buffer).
STABLE_LAYERS = {"stability", "hybrid-causal"}

#: layers whose delivery is agreed across members before release — the
#: closest the stack comes to the paper's "atomic" delivery.
ATOMIC_LAYERS = {"total-agreed"}

#: keyword arguments whose string value names a discipline or spec
#: (``stack`` is the socket host's name for ``ordering``).
SPEC_KEYWORDS = ("discipline", "spec", "ordering", "stack", "stack_spec")

#: qualified roots the guarantee environment distinguishes.
MEMBER_ROOT = "repro.catocs.member.GroupMember"

#: the ``GroupMember.__init__`` signature default.
DEFAULT_MEMBER_SPEC = "causal"


@dataclass(frozen=True)
class Guarantee:
    """What one resolved stack spec promises about delivery."""

    spec: str
    layers: Tuple[str, ...]
    order: int
    stable: bool
    atomic: bool

    @property
    def order_name(self) -> str:
        return ORDER_NAMES[self.order]

    def to_json(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "layers": list(self.layers),
            "order": self.order_name,
            "stable": self.stable,
            "atomic": self.atomic,
        }


#: Unstacked ``Process.send`` traffic: per-packet jittered latency, no
#: dedup, no retention — the weakest point of the lattice.  The first
#: field is a *description*, not a spec string.
PLAIN_SEND = Guarantee("<plain send>", (), ORDER_NONE, False, False)


class GuaranteeModel:
    """Resolve spec strings to :class:`Guarantee` values.

    ``resolver`` is injectable for tests; the default late-imports the real
    :func:`repro.catocs.stack.resolve_spec` so aliases and validity agree
    with the runtime registry (nothing beyond module import is executed).
    """

    def __init__(
        self,
        resolver: Optional[Callable[[str], Sequence[str]]] = None,
    ) -> None:
        self._resolver = resolver
        self._cache: Dict[str, Optional[Guarantee]] = {}

    def _resolve_names(self, spec: str) -> Sequence[str]:
        if self._resolver is not None:
            return self._resolver(spec)
        from repro.catocs import stack

        return stack.resolve_spec(spec)

    def resolve(self, spec: str) -> Optional[Guarantee]:
        """``Guarantee`` for a discipline alias or explicit spec string;
        ``None`` when the registry rejects it."""
        if spec in self._cache:
            return self._cache[spec]
        try:
            names = tuple(self._resolve_names(spec))
        except (ValueError, KeyError):
            self._cache[spec] = None
            return None
        guarantee = Guarantee(
            spec=spec,
            layers=names,
            # The top layer is the ordering discipline; an unknown one
            # promises nothing (under-claiming is the safe direction).
            order=LAYER_ORDER.get(names[-1], ORDER_NONE),
            stable=any(n in STABLE_LAYERS for n in names),
            atomic=any(n in ATOMIC_LAYERS for n in names),
        )
        self._cache[spec] = guarantee
        return guarantee

    def meet(self, guarantees: Iterable[Guarantee]) -> Optional[Guarantee]:
        """The weakest of several guarantees (lattice meet, flags ANDed)."""
        weakest: Optional[Guarantee] = None
        for g in guarantees:
            if weakest is None:
                weakest = g
                continue
            weakest = Guarantee(
                spec=g.spec if g.order < weakest.order else weakest.spec,
                layers=g.layers if g.order < weakest.order else weakest.layers,
                order=min(g.order, weakest.order),
                stable=g.stable and weakest.stable,
                atomic=g.atomic and weakest.atomic,
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

    def __init__(
        self,
        graph: CodeGraph,
        modules: Sequence[SourceModule],
        model: Optional[GuaranteeModel] = None,
    ) -> None:
        self.model = model or GuaranteeModel()
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
            met = self.model.meet(resolved)
            assert met is not None
            return met
        # 2. spec strings anywhere in the defining module.
        resolved = self._resolve_all(self._module_specs.get(info.relpath, []))
        if resolved:
            met = self.model.meet(resolved)
            assert met is not None
            return met
        # 3. the GroupMember signature default.
        fallback = self.model.resolve(DEFAULT_MEMBER_SPEC)
        return fallback if fallback is not None else PLAIN_SEND

    def _resolve_all(self, specs: Iterable[str]) -> List[Guarantee]:
        out: List[Guarantee] = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            guarantee = self.model.resolve(spec)
            if guarantee is not None:
                out.append(guarantee)
        return out

    def to_json(self) -> Dict[str, object]:
        """The guarantee table for the ``effects`` export: every registered
        discipline alias plus every spec observed in the scanned tree."""
        specs: Dict[str, Optional[Guarantee]] = {}
        try:
            from repro.catocs.stack import DISCIPLINES

            for alias in sorted(DISCIPLINES):
                specs[alias] = self.model.resolve(alias)
        except ImportError:  # pragma: no cover - registry always importable
            pass
        for relpath in sorted(self._module_specs):
            for spec in self._module_specs[relpath]:
                if spec not in specs:
                    specs[spec] = self.model.resolve(spec)
        return {
            spec: (g.to_json() if g is not None else None)
            for spec, g in sorted(specs.items())
        }


def guarantee_env_for(project) -> GuaranteeEnv:  # type: ignore[no-untyped-def]
    """Build (or reuse) the guarantee environment for a Project."""
    cached = getattr(project, "_guarantee_env", None)
    if cached is not None:
        return cached
    env = GuaranteeEnv(code_graph_for(project), project.src_modules)
    project._guarantee_env = env
    return env


__all__ = [
    "Guarantee",
    "GuaranteeEnv",
    "GuaranteeModel",
    "PLAIN_SEND",
    "ORDER_NONE",
    "ORDER_FIFO",
    "ORDER_CAUSAL",
    "ORDER_TOTAL",
    "ORDER_NAMES",
    "MEMBER_ROOT",
    "SPEC_KEYWORDS",
    "guarantee_env_for",
    "spec_strings_in",
]
