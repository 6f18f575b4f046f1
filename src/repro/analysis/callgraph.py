"""Class-hierarchy and attribute-type inference over the parsed tree.

The FLOW and ORD rule families need to answer questions no single-file
lexical pass can: *is this class a simulated process?* (transitively, through
bases defined in other files), *what type does ``self.membership`` hold?*
(assigned ``None`` in the constructor, attached later by ``ViewManager``),
*which methods answer to the name ``broadcast``?*  This module builds that
index once per :class:`~repro.analysis.engine.Project`.

The inference is deliberately modest — purpose-built for this codebase's
idioms rather than a general type system:

- **Hierarchy.**  Base-class names are resolved through each module's import
  bindings to dotted qualnames (``repro.sim.process.Process``), then chained
  through classes defined anywhere in the scanned tree.  A fixture file that
  merely *imports* ``Process`` still gets correct subtype answers, because
  resolution bottoms out at well-known qualified names, not at scanned
  definitions.
- **Attribute types.**  ``self.x = ClassName(...)`` and ``self.x: T``
  contribute candidates per owning class; ``<anything>.x = self`` (the
  reverse-attach idiom ``member.membership = self``) contributes a global
  per-attribute fallback consulted when the owning class knows nothing.
- **Methods by name.**  Call sites are resolved nominally: every scanned
  function answering to the called name is a candidate, optionally narrowed
  by the receiver's inferred class (:meth:`CodeGraph.methods_for`).

The resolvers the rule families share live here, once: the first-base
chain (:meth:`CodeGraph.base_chain`), method lookup with subtype
overrides, and "an attribute of another process"
(:meth:`CodeGraph.foreign_access`, behind ORD003).

Everything is plain AST — nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    annotation_class,
    dotted_name,
    import_bindings,
    is_process_lookup,
    qualify,
)
from repro.analysis.source import SourceModule

#: Qualified names the hierarchy bottoms out at (defined in the tree when the
#: whole repo is scanned, but resolvable by name alone in fixture mode).
PROCESS_ROOT = "repro.sim.process.Process"
LAYER_ROOT = "repro.catocs.stack.ProtocolLayer"

#: attributes on another process that are identity, not state — reading
#: them cannot create a causal dependency the substrate misses.
BENIGN_PROCESS_ATTRS = {"pid"}


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "<module-or-relpath>.Class.method" / "....func"
    name: str
    module: str
    relpath: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    owner: Optional[str] = None  # owning class qualname, None for free funcs
    params: List[str] = field(default_factory=list)  # positional, incl. self

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition plus what the rules infer about it."""

    qualname: str
    name: str
    module: str
    relpath: str
    lineno: int
    #: bases as resolved dotted names (qualified through import bindings)
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> candidate class qualnames (from self.x = Cls(...))
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


class CodeGraph:
    """The cross-module class/function index the FLOW/ORD rules query."""

    def __init__(self, modules: Iterable[SourceModule]) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: attr name -> classes observed attached via ``<obj>.attr = self``
        self.reverse_attach: Dict[str, Set[str]] = {}
        self.imports: Dict[str, Dict[str, str]] = {}  # relpath -> bindings
        self._subtype_cache: Dict[Tuple[str, str], bool] = {}
        self._subtypes: Dict[str, List[ClassInfo]] = {}
        for mod in modules:
            self._index_module(mod)

    # -- construction -----------------------------------------------------------

    def _module_key(self, mod: SourceModule) -> str:
        # Fixture files parsed outside src/ have no dotted module name; key
        # their definitions by relpath so qualnames stay unique.
        return mod.module or mod.relpath

    def _index_module(self, mod: SourceModule) -> None:
        imports = import_bindings(mod.tree)
        self.imports[mod.relpath] = imports
        key = self._module_key(mod)
        for node in mod.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(mod, key, imports, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, key, node, owner=None)

    def _index_class(
        self,
        mod: SourceModule,
        key: str,
        imports: Dict[str, str],
        node: ast.ClassDef,
    ) -> None:
        qualname = f"{key}.{node.name}"
        bases = []
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                bases.append(qualify(name, imports))
        info = ClassInfo(
            qualname=qualname,
            name=node.name,
            module=mod.module,
            relpath=mod.relpath,
            lineno=node.lineno,
            base_names=bases,
        )
        self.classes[qualname] = info
        self.by_name.setdefault(node.name, []).append(info)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._index_function(mod, key, item, owner=qualname)
                info.methods[item.name] = func
                self._infer_attrs(info, imports, item)

    def _index_function(
        self,
        mod: SourceModule,
        key: str,
        node: ast.AST,
        owner: Optional[str],
    ) -> FunctionInfo:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        prefix = owner if owner is not None else key
        func = FunctionInfo(
            qualname=f"{prefix}.{node.name}",
            name=node.name,
            module=mod.module,
            relpath=mod.relpath,
            node=node,
            owner=owner,
            params=[a.arg for a in node.args.args],
        )
        self.functions[func.qualname] = func
        self.methods_by_name.setdefault(node.name, []).append(func)
        return func

    def _infer_attrs(
        self, info: ClassInfo, imports: Dict[str, str], method: ast.AST
    ) -> None:
        assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types: Dict[str, str] = {}
        for arg in list(method.args.args) + list(method.args.kwonlyargs):
            if arg.annotation is None:
                continue
            ann = annotation_class(arg.annotation)
            if ann:
                param_types[arg.arg] = qualify(ann, imports)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                # self.x = Cls(...)  /  self.x: T = ...
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    candidate = self._value_class(node, value, imports)
                    # ``self.stack = stack`` with ``stack: ProtocolStack``
                    # in the signature types the attribute too.
                    if candidate is None and isinstance(value, ast.Name):
                        candidate = param_types.get(value.id)
                    if candidate:
                        info.attr_types.setdefault(target.attr, set()).add(candidate)
                # <obj>.x = self  — the reverse-attach idiom.
                elif isinstance(value, ast.Name) and value.id == "self":
                    self.reverse_attach.setdefault(target.attr, set()).add(
                        info.qualname
                    )

    def _value_class(
        self, stmt: ast.AST, value: Optional[ast.AST], imports: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is None:
                return None
            resolved = qualify(name, imports)
            # Only constructor-looking calls (capitalised final segment).
            tail = resolved.rsplit(".", 1)[-1]
            if tail[:1].isupper():
                return resolved
            return None
        if isinstance(stmt, ast.AnnAssign):
            ann = annotation_class(stmt.annotation)
            if ann:
                return qualify(ann, imports)
        return None

    # -- queries ---------------------------------------------------------------

    def class_for(self, qualname_or_name: str) -> Optional[ClassInfo]:
        found = self.classes.get(qualname_or_name)
        if found is not None:
            return found
        candidates = self.by_name.get(qualname_or_name.rsplit(".", 1)[-1], [])
        for info in candidates:
            if info.qualname == qualname_or_name or qualname_or_name.endswith(
                "." + info.name
            ):
                return info
        # A bare simple name matches any scanned definition of that name
        # (fixture mode references classes without a resolvable module).
        if "." not in qualname_or_name and candidates:
            return candidates[0]
        return None

    def is_subtype(self, qualname: str, root: str) -> bool:
        """Is class ``qualname`` a (transitive) subtype of ``root``?

        ``root`` is a dotted qualname like ``repro.sim.process.Process``;
        matching also accepts a base resolved to the same trailing
        ``module.Class`` pair so relative imports still line up.
        """
        key = (qualname, root)
        cached = self._subtype_cache.get(key)
        if cached is not None:
            return cached
        self._subtype_cache[key] = False  # cycle guard
        result = self._is_subtype(qualname, root)
        self._subtype_cache[key] = result
        return result

    def _is_subtype(self, qualname: str, root: str) -> bool:
        if qualname == root or _same_class_ref(qualname, root):
            return True
        info = self.class_for(qualname)
        if info is None:
            return False
        if info.qualname == root:
            return True
        for base in info.base_names:
            if _same_class_ref(base, root) or self.is_subtype(base, root):
                return True
        return False

    def subtypes_of(self, root: str) -> List[ClassInfo]:
        found = self._subtypes.get(root)
        if found is None:
            found = self._subtypes[root] = [
                info
                for qualname, info in sorted(self.classes.items())
                if self.is_subtype(qualname, root)
            ]
        return found

    def mro_names(self, qualname: str) -> List[str]:
        """Class simple names along the base chain (best effort, no C3)."""
        out: List[str] = []
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop(0)
            info = self.class_for(current)
            name = current.rsplit(".", 1)[-1]
            if name not in seen:
                seen.add(name)
                out.append(name)
            if info is not None:
                stack.extend(b for b in info.base_names if b not in seen)
        return out

    def base_chain(self, qualname: Optional[str]) -> Iterator[ClassInfo]:
        """The class and its first-base ancestors, as far as they are
        scanned (at most ten hops, so a base cycle cannot hang the walk)."""
        cursor = qualname
        for _ in range(10):
            info = self.class_for(cursor) if cursor else None
            if info is None:
                return
            yield info
            cursor = info.base_names[0] if info.base_names else None

    def own_attr_types(self, owner: Optional[str], attr: str) -> Set[str]:
        """Candidate class qualnames for ``self.attr`` from the class's own
        (and its first bases') assignments."""
        found: Set[str] = set()
        for info in self.base_chain(owner):
            found |= info.attr_types.get(attr, set())
        return found

    def attr_candidates(self, owner: Optional[str], attr: str) -> Set[str]:
        """:meth:`own_attr_types`, else every class observed attaching itself
        as ``<obj>.attr = self``."""
        return self.own_attr_types(owner, attr) or set(
            self.reverse_attach.get(attr, set())
        )

    def methods_for(self, class_qualname: str, method: str) -> List[FunctionInfo]:
        """Static resolution up the base chain, plus every subtype override
        (models dynamic dispatch on the receiver)."""
        out: Dict[str, FunctionInfo] = {}
        for info in self.base_chain(class_qualname):
            if method in info.methods:
                out[info.methods[method].qualname] = info.methods[method]
                break
        root_info = self.class_for(class_qualname)
        if root_info is not None:
            for sub in self.subtypes_of(root_info.qualname):
                if sub.qualname != root_info.qualname and method in sub.methods:
                    out[sub.methods[method].qualname] = sub.methods[method]
        return [out[q] for q in sorted(out)]

    def foreign_access(
        self, info: ClassInfo, node: ast.Attribute, process_vars: Set[str]
    ) -> Optional[str]:
        """Is ``node`` an attribute of *another* process, read or written
        from a method of ``info``?  A human-readable description of that
        process, or None.  ``process_vars`` are the method's locals bound to
        a process-registry lookup (``server = self.network.process(pid)``).
        """
        if node.attr in BENIGN_PROCESS_ATTRS:
            return None
        base = node.value
        if is_process_lookup(base):
            return "a process-registry lookup"
        if isinstance(base, ast.Name) and base.id in process_vars:
            return f"`{base.id}` (bound to a process-registry lookup)"
        # ``self.<a>.<attr>`` where the class knows ``a`` holds a Process —
        # only the class's own inference: the reverse-attach fallback is too
        # speculative for an error-level rule.
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            for candidate in sorted(self.own_attr_types(info.qualname, base.attr)):
                if self.is_subtype(candidate, PROCESS_ROOT):
                    return f"`self.{base.attr}` (a {candidate.rsplit('.', 1)[-1]})"
        return None


def _same_class_ref(a: str, b: str) -> bool:
    """Do two dotted names plausibly reference the same class?

    ``repro.catocs.member.GroupMember`` vs ``GroupMember`` (unresolvable
    local base) match on the simple name only when one side is unqualified;
    two qualified names must agree on their final two segments.
    """
    if a == b:
        return True
    ta, tb = a.rsplit(".", 1)[-1], b.rsplit(".", 1)[-1]
    if ta != tb:
        return False
    if "." not in a or "." not in b:
        return True
    return a.split(".")[-2:] == b.split(".")[-2:]


def build_code_graph(modules: Iterable[SourceModule]) -> CodeGraph:
    return CodeGraph(modules)


def code_graph_for(project) -> CodeGraph:  # type: ignore[no-untyped-def]
    """Build (or reuse) the code graph for a Project: every graph-backed
    rule, the flow graph and the effect table share one."""
    cached = getattr(project, "_code_graph", None)
    if cached is not None:
        return cached
    graph = build_code_graph(project.src_modules)
    project._code_graph = graph
    return graph
