"""Protocol-contract rules (``PROTO*``).

These cross-check the composable-stack machinery against itself:

- every class in the layer registry honours the
  :class:`~repro.catocs.stack.ProtocolLayer` surface (PROTO001);
- every stack spec string written anywhere — code, tests, docs — resolves
  against that registry (PROTO002);
- every wire-message dataclass has a handler reachable through the typed
  dispatch table :meth:`repro.sim.process.Process.add_message_handler`
  builds (PROTO003);
- every wire message a layer sends has a wire-codec registration
  (PROTO005).

Unlike the lexical rules, these import the real registry: the contract *is*
the runtime registration state, and checking the source of truth beats
re-deriving it from syntax.  Nothing is executed beyond module import — no
simulator runs.  Each rule takes injectable collaborators so the test suite
can aim it at a deliberately broken fake registry.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from repro.analysis.astutil import dotted_name
from repro.analysis.finding import Finding, Severity, make_finding
from repro.analysis.rules import Rule
from repro.analysis.source import SourceModule

#: The transport-pipeline surface every layer must honour.
LAYER_SURFACE: Tuple[Tuple[str, int], ...] = (
    # (method, positional arity excluding self)
    ("bind", 1),
    ("on_attached", 0),
    ("send_down", 1),
    ("receive_up", 2),
    ("on_control", 2),
    ("on_membership_changed", 1),
    ("layer_metrics", 0),
)

#: The delivery-gate surface of an ordering-kind layer.
ORDERING_SURFACE: Tuple[Tuple[str, int], ...] = (
    ("stamp", 1),
    ("accept_local", 1),
    ("insert", 1),
    ("release_next", 0),
    ("pending", 0),
    ("flush_state", 1),
)


def _accepts(func: Any, nargs: int) -> bool:
    """True when ``func`` can be called with ``nargs`` positional args
    (after self).  Unintrospectable callables pass the benefit of the doubt.
    """
    try:
        sig = inspect.signature(func)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return True
    required = 0
    maximum = 0
    for name, param in sig.parameters.items():
        if name == "self":
            continue
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            maximum += 1
            if param.default is inspect.Parameter.empty:
                required += 1
        elif param.kind is inspect.Parameter.VAR_POSITIONAL:
            maximum = 10**6
        elif (
            param.kind is inspect.Parameter.KEYWORD_ONLY
            and param.default is inspect.Parameter.empty
        ):
            return False  # a required kw-only param breaks positional calls
    return required <= nargs <= maximum


def _class_location(cls: type, root: Path) -> Tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls)
        _, lineno = inspect.getsourcelines(cls)
    except (TypeError, OSError):
        return ("", 0)
    if path is None:
        return ("", 0)
    try:
        rel = Path(path).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = Path(path).as_posix()
    return (rel, lineno)


def _real_registry() -> Tuple[Dict[str, Any], Dict[str, str], type]:
    from repro.catocs import stack

    stack._ensure_layers_imported()
    return stack.LAYER_REGISTRY, stack.LAYER_KINDS, stack.ProtocolLayer


class LayerSurfaceRule(Rule):
    """PROTO001: every registered layer implements the layer surface."""

    rule_id = "PROTO001"
    title = "registered protocol layer violates the ProtocolLayer surface"
    severity = Severity.ERROR
    repo_only = True

    def __init__(
        self,
        registry: Optional[Dict[str, Any]] = None,
        kinds: Optional[Dict[str, str]] = None,
        base: Optional[type] = None,
    ) -> None:
        self._registry = registry
        self._kinds = kinds
        self._base = base

    def check_project(self, project: Any) -> Iterable[Finding]:
        if self._registry is not None:
            registry, kinds, base = self._registry, self._kinds or {}, self._base
        else:
            registry, kinds, base = _real_registry()
        for name in sorted(registry):
            yield from self._check_layer(
                project.root, name, registry[name], kinds.get(name), base
            )

    def _check_layer(
        self,
        root: Path,
        name: str,
        factory: Any,
        kind: Optional[str],
        base: Optional[type],
    ) -> Iterable[Finding]:
        cls = factory if isinstance(factory, type) else None
        if cls is None:
            # A non-class factory hides the layer type from inspection;
            # the registry contract is "register the class itself".
            yield self._registry_finding(
                root, None, name,
                f"layer {name!r} is registered with a non-class factory "
                f"({factory!r}); register the layer class itself",
            )
            return
        if base is not None and not issubclass(cls, base):
            yield self._registry_finding(
                root, cls, name,
                f"layer {name!r} ({cls.__name__}) is not a "
                f"{base.__name__} subclass",
            )
            return
        declared = getattr(cls, "name", None)
        if declared != name:
            yield self._registry_finding(
                root, cls, name,
                f"layer {name!r} ({cls.__name__}) declares name="
                f"{declared!r}; registry key and class name must agree",
            )
        declared_kind = getattr(cls, "kind", None)
        if kind is not None and declared_kind != kind:
            yield self._registry_finding(
                root, cls, name,
                f"layer {name!r} ({cls.__name__}) declares kind="
                f"{declared_kind!r} but is registered as {kind!r}",
            )
        surface = list(LAYER_SURFACE)
        if (kind or declared_kind) == "ordering":
            surface += list(ORDERING_SURFACE)
        for method, arity in surface:
            impl = getattr(cls, method, None)
            if impl is None or not callable(impl):
                yield self._registry_finding(
                    root, cls, name,
                    f"layer {name!r} ({cls.__name__}) is missing the "
                    f"{method}() surface method",
                )
            elif not _accepts(impl, arity):
                yield self._registry_finding(
                    root, cls, name,
                    f"layer {name!r} ({cls.__name__}).{method}() does not "
                    f"accept the contract's {arity} positional argument(s)",
                )

    def _registry_finding(
        self, root: Path, cls: Optional[type], name: str, message: str
    ) -> Finding:
        relpath, lineno = ("", 0)
        if cls is not None:
            relpath, lineno = _class_location(cls, root)
        if not relpath:
            relpath = "src/repro/catocs/stack.py"
        return make_finding(
            self.rule_id, self.severity, relpath, lineno, message,
            hint="see the ProtocolLayer docstring in repro/catocs/stack.py",
            source_line=f"layer:{name}",
        )


# -- PROTO002: spec strings ------------------------------------------------------

SPEC_RE = re.compile(r"^[a-z0-9_-]+(\|[a-z0-9_-]+)+$")
DOC_SPEC_RE = re.compile(r"[`\"']([a-z0-9_-]+(?:\|[a-z0-9_-]+)+)[`\"']")

#: Keyword arguments whose string value names a discipline or stack spec.
SPEC_KEYWORDS = {"discipline", "spec", "ordering", "stack_spec"}


class SpecStringRule(Rule):
    """PROTO002: every spec string resolves against the layer registry.

    A ``"a|b|c"`` literal is *treated as* a spec when at least one segment
    is a registered layer or discipline alias — that keeps regex literals
    like ``"PASS|FAIL"`` out of scope while catching a typo in any real
    spec.  Single-word literals are validated only where the keyword names
    them (``discipline=``, ``ordering=``, ...).
    """

    rule_id = "PROTO002"
    title = "invalid protocol stack spec string"
    severity = Severity.ERROR

    def __init__(
        self,
        resolver: Optional[Callable[[str], Any]] = None,
        known_names: Optional[Set[str]] = None,
    ) -> None:
        self._resolver = resolver
        self._known = known_names

    def _load(self) -> Tuple[Callable[[str], Any], Set[str]]:
        if self._resolver is not None and self._known is not None:
            return self._resolver, self._known
        from repro.catocs import stack

        stack._ensure_layers_imported()
        return (
            self._resolver or stack.resolve_spec,
            self._known
            or (set(stack.LAYER_REGISTRY) | set(stack.DISCIPLINES)),
        )

    def check_project(self, project: Any) -> Iterable[Finding]:
        resolver, known = self._load()
        for mod in project.src_modules + project.test_modules:
            yield from self._check_python(mod, resolver, known)
        for doc in project.docs:
            yield from self._check_doc(doc, resolver, known)

    def _validate(
        self, resolver: Callable[[str], Any], text: str
    ) -> Optional[str]:
        try:
            resolver(text)
        except ValueError as exc:
            return str(exc)
        return None

    def _looks_like_spec(self, text: str, known: Set[str]) -> bool:
        return bool(SPEC_RE.match(text)) and any(
            part in known for part in text.split("|")
        )

    def _check_python(
        self,
        mod: SourceModule,
        resolver: Callable[[str], Any],
        known: Set[str],
    ) -> Iterable[Finding]:
        # Positions already validated as keyword values, so the generic
        # constant scan below does not double-report them.
        checked: Set[Tuple[int, int]] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg in SPEC_KEYWORDS
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        text = kw.value.value
                        error = self._validate(resolver, text)
                        checked.add((kw.value.lineno, kw.value.col_offset))
                        if error:
                            yield self._spec_finding(mod, kw.value.lineno, text, error)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (node.lineno, node.col_offset) not in checked
                and self._looks_like_spec(node.value, known)
            ):
                error = self._validate(resolver, node.value)
                if error:
                    yield self._spec_finding(mod, node.lineno, node.value, error)

    def _check_doc(
        self, doc: Any, resolver: Callable[[str], Any], known: Set[str]
    ) -> Iterable[Finding]:
        for lineno, line in enumerate(doc.lines, start=1):
            for match in DOC_SPEC_RE.finditer(line):
                text = match.group(1)
                if not self._looks_like_spec(text, known):
                    continue
                error = self._validate(resolver, text)
                if error:
                    yield make_finding(
                        self.rule_id, self.severity, doc.relpath, lineno,
                        f"spec string {text!r} does not resolve: {error}",
                        hint="update the doc to a spec the registry accepts",
                        source_line=line,
                    )

    def _spec_finding(
        self, mod: SourceModule, lineno: int, text: str, error: str
    ) -> Finding:
        return self.finding(
            mod, lineno,
            f"spec string {text!r} does not resolve: {error}",
            hint="valid specs are registered layer names joined by '|' "
            "with exactly one ordering layer on top",
        )


# -- PROTO003: wire-message handler coverage -------------------------------------


def _message_classes() -> List[type]:
    from repro.catocs import messages

    found = []
    for name in sorted(vars(messages)):
        obj = getattr(messages, name)
        if (
            isinstance(obj, type)
            and is_dataclass(obj)
            and obj.__module__ == messages.__name__
        ):
            found.append(obj)
    return found


def _handled_type_names(modules: Iterable[SourceModule]) -> Set[str]:
    """Type names registered via ``add_message_handler(Type, handler)``."""
    handled: Set[str] = set()
    for mod in modules:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_message_handler"
                and node.args
            ):
                name = dotted_name(node.args[0])
                if name:
                    handled.add(name.split(".")[-1])
    return handled


class HandlerCoverageRule(Rule):
    """PROTO003: every wire-message dataclass reaches a typed handler.

    Dispatch walks the payload's MRO (see ``Process.dispatch``), so a
    message is covered when any of its ancestors is registered.  A dataclass
    in ``repro.catocs.messages`` with no registered ancestor is dead on
    arrival: the member silently routes it to ``on_message``, which group
    members do not override.
    """

    rule_id = "PROTO003"
    title = "wire message without a reachable typed handler"
    severity = Severity.ERROR
    repo_only = True

    def __init__(
        self,
        handled_names: Optional[Set[str]] = None,
        message_classes: Optional[List[type]] = None,
    ) -> None:
        self._handled = handled_names
        self._classes = message_classes

    def check_project(self, project: Any) -> Iterable[Finding]:
        handled = (
            self._handled
            if self._handled is not None
            else _handled_type_names(project.src_modules)
        )
        classes = (
            self._classes if self._classes is not None else _message_classes()
        )
        for cls in classes:
            if not any(k.__name__ in handled for k in cls.__mro__):
                relpath, lineno = _class_location(cls, project.root)
                yield make_finding(
                    self.rule_id, self.severity,
                    relpath or "src/repro/catocs/messages.py", lineno,
                    f"message dataclass {cls.__name__} matches no registered "
                    "typed handler (Process.add_message_handler); it would "
                    "fall through to on_message and be dropped",
                    hint="register a handler for the class or give it a "
                    "handled marker base (TransportControl, OrderingControl, "
                    "MembershipControl)",
                    source_line=f"class:{cls.__name__}",
                )


# -- PROTO005: codec coverage ------------------------------------------------------


def _real_codec_names() -> Set[str]:
    from repro.runtime import codec

    return {cls.__name__ for cls in codec.registered_classes()}


class CodecCoverageRule(Rule):
    """PROTO005: every layer-sent wire message has a wire-codec registration.

    The UDP transport (:mod:`repro.runtime.udp`) serialises every payload
    through :mod:`repro.runtime.codec`; a message class without a
    registration works fine in the zero-copy simulator and then raises
    ``CodecError`` the first time the same stack runs over a socket.  This
    rule closes that gap statically, reusing the PR 5 flow graph: a class
    is in scope when it is (a) sent from a method of a class registered via
    ``register_layer`` or (b) defined in ``repro.catocs.messages`` (the
    authoritative wire catalogue) and sent anywhere — which covers the
    ordering layers, membership, heartbeats and the member itself, whose
    registrations the literal-reference ``register_layer`` scan cannot see.
    """

    rule_id = "PROTO005"
    title = "wire message sent without a codec registration"
    severity = Severity.ERROR

    def __init__(
        self, codec_names: Optional[Callable[[], Set[str]]] = None
    ) -> None:
        self._codec_names = codec_names or _real_codec_names

    def check_project(self, project: Any) -> Iterable[Finding]:
        from repro.analysis.flowgraph import flow_graph_for

        flow = flow_graph_for(project)
        graph = flow.code
        registered = self._codec_names()
        layer_classes = flow.registered_layers
        by_relpath = {m.relpath: m for m in project.src_modules}

        def sending_class(context: str) -> str:
            func = graph.functions.get(context)
            owner = func.owner if func is not None else None
            return owner.rsplit(".", 1)[-1] if owner else ""

        for name in sorted(flow.sent_names()):
            if name in registered:
                continue
            sites = [s for s in flow.sends if s.message == name]
            node = flow.messages.get(name)
            from_layer = any(
                sending_class(s.context) in layer_classes for s in sites
            )
            is_wire_catalogue = (
                node is not None and node.module == "repro.catocs.messages"
            )
            if not (from_layer or is_wire_catalogue):
                continue
            site = min(sites, key=lambda s: (s.relpath, s.lineno))
            message = (
                f"wire message {name} crosses the transport but has no codec "
                "registration (repro.runtime.codec); it cannot leave the "
                "process on the UDP backend"
            )
            hint = (
                "register it with repro.runtime.codec.register_wire (a "
                "dataclass in repro.catocs.messages is picked up by "
                "wire_classes() automatically)"
            )
            yield self.finding_at(by_relpath, site.relpath, site.lineno, message, hint)
