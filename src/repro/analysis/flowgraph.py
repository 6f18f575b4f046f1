"""The interprocedural message-flow graph behind the FLOW rules.

The paper's hidden-channel critique (Section 3) is about traffic the
ordering substrate cannot see; the dual failure inside the substrate is
traffic *nobody* consumes — a wire message sent with no handler on the
typed-dispatch surface, a handler kept alive for a message nothing sends,
or a handler that answers a message by sending more messages in the same
tick until the tick never drains.  Answering any of those questions needs
an interprocedural view: ``GroupMember._do_multicast`` constructs the
``DataMessage`` but the ``Process.send`` call is four frames away, inside
``ProtocolStack.transmit``.

This module builds that view, statically, from the parsed tree:

1. **Send sites.**  Calls to the send primitives (``send``,
   ``send_control``, ``broadcast_control``, ``multicast``, matched by
   name and arity) are collected per function.  A payload argument that
   is a constructor call resolves immediately; one that is a *parameter*
   makes the function a forwarder (``SendsParam``), and a fixpoint pass
   propagates constructor classes down call chains into forwarders —
   including chains through ``set_timer``/``call_later`` callbacks, which
   are marked *delayed* unless the delay is a literal zero.
2. **Handler surface.**  ``add_message_handler(Cls, fn)`` registrations
   plus ``isinstance(payload, Cls)`` dispatch sites (the idiom the apps
   use inside ``on_message``/``on_app_message``).  Typed dispatch walks
   the payload MRO, so a handler for a marker base covers every subclass.
3. **Same-tick edges.**  For each concrete message class reaching a
   handler, a narrowing closure walks the handler body — descending only
   into ``isinstance`` arms the class can actually take, following calls
   with the payload identity threaded through — and records which message
   classes the handler can construct-and-send *in the same tick*.
   Forwarding the handled object itself is not an edge (a forward does
   not mint new work), and timer-delayed sends are excluded (next tick
   breaks the livelock).

Known blind spots, accepted for precision: payloads fetched from
containers (``self.repair_lookup[...]``) do not resolve to a class, and
callbacks passed through ``on_deliver``-style indirection are not
followed.  Both under-approximate — the graph never invents an edge.

Everything is plain AST; nothing is imported or executed, so the graph
also works in explicit-paths fixture mode.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CodeGraph,
    FunctionInfo,
    LAYER_ROOT,
    _annotation_class,
)
from repro.analysis.astutil import dotted_name
from repro.analysis.source import SourceModule

#: send primitive -> {call arity: payload argument index}.
SEND_ARG: Dict[str, Dict[int, int]] = {
    "send": {2: 1, 3: 2},  # member.send(dst, p) / network.send(src, dst, p)
    "send_many": {2: 1},  # process.send_many(dsts, p)
    "send_peers": {1: 0},
    "send_control": {2: 1},
    "broadcast_control": {1: 0},
    "multicast": {1: 0, 3: 2},  # member.multicast(p) / network.multicast(src, dsts, p)
}

#: scheduling primitives: (delay argument index, callback argument index).
TIMER_FUNCS = {
    "set_timer": (0, 1), "call_later": (0, 1), "call_at": (0, 1), "post_at": (0, 1),
}

#: module whose classes are wire messages by definition.
MESSAGES_MODULE = "repro.catocs.messages"

#: dispatch entry points: following a call into one of these *without*
#: threading the payload through would attribute the callee's sends to the
#: wrong message (the inner message of an envelope already gets its own
#: handler-site edges), so the closure skips them instead.
DISPATCH_ENTRYPOINTS = {"on_message", "on_app_message", "dispatch"}

_CLOSURE_DEPTH = 8


@dataclass(frozen=True)
class SendSite:
    """One place a resolved message class leaves a process."""

    message: str  # class simple name
    context: str  # qualname of the sending function
    relpath: str
    lineno: int
    via: str  # primitive name, possibly "set_timer->multicast"
    delayed: bool = False  # scheduled strictly after the current tick


@dataclass(frozen=True)
class HandlerSite:
    """One place a message class is consumed."""

    message: str
    context: str  # handler function qualname ("" when unresolvable)
    relpath: str
    lineno: int
    kind: str  # "typed" | "isinstance"


@dataclass(frozen=True)
class FlowEdge:
    """Handling ``src`` can send ``dst`` within the same tick."""

    src: str
    dst: str
    context: str  # handler function whose closure produced the edge
    relpath: str
    lineno: int


@dataclass
class MessageNode:
    name: str
    relpath: str
    lineno: int
    module: str
    bases: List[str] = field(default_factory=list)  # mro simple names, no self


@dataclass
class _Summary:
    """Per-function extraction results reused by fixpoint and closure."""

    func: FunctionInfo
    local_ctors: Dict[str, str] = field(default_factory=dict)
    param_annotations: Dict[str, str] = field(default_factory=dict)
    sends_params: Dict[str, int] = field(default_factory=dict)  # name -> line


class FlowGraph:
    """The assembled graph plus the queries the FLOW rules need."""

    def __init__(self, modules: Sequence[SourceModule], graph: CodeGraph) -> None:
        self.code = graph
        self.modules = list(modules)
        self.messages: Dict[str, MessageNode] = {}
        self.sends: List[SendSite] = []
        self.handlers: List[HandlerSite] = []
        self.edges: List[FlowEdge] = []
        #: layer-class simple names registered via ``register_layer(...)``.
        self.registered_layers: Set[str] = set()
        self._summaries: Dict[str, _Summary] = {}
        self._closure_cache: Dict[Tuple[str, Optional[str], str], None] = {}
        self._build()

    # -- public queries ---------------------------------------------------------

    def handled_names(self) -> Set[str]:
        return {h.message for h in self.handlers}

    def sent_names(self) -> Set[str]:
        return {s.message for s in self.sends}

    def is_handled(self, message: str) -> bool:
        """Does any typed or isinstance handler cover ``message``?

        Typed dispatch walks the payload MRO and ``isinstance`` accepts
        superclasses, so a handler on any base of ``message`` counts.
        """
        handled = self.handled_names()
        return any(name in handled for name in self._mro(message))

    def is_sent(self, message: str) -> bool:
        """Is ``message`` or any scanned subclass of it ever sent?"""
        sent = self.sent_names()
        if message in sent:
            return True
        return any(message in self._mro(other) for other in sent)

    def same_tick_cycles(self) -> List[List[str]]:
        """Strongly connected components of the same-tick edge graph that
        contain a cycle, each sorted and the list sorted — deterministic."""
        adj: Dict[str, Set[str]] = {}
        for edge in self.edges:
            adj.setdefault(edge.src, set()).add(edge.dst)
            adj.setdefault(edge.dst, set())
        order: List[str] = []
        visited: Set[str] = set()

        def dfs1(node: str) -> None:
            stack = [(node, iter(sorted(adj[node])))]
            visited.add(node)
            while stack:
                current, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in visited:
                        visited.add(child)
                        stack.append((child, iter(sorted(adj[child]))))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        for node in sorted(adj):
            if node not in visited:
                dfs1(node)

        radj: Dict[str, Set[str]] = {n: set() for n in adj}
        for edge in self.edges:
            radj[edge.dst].add(edge.src)
        assigned: Set[str] = set()
        components: List[List[str]] = []
        for node in reversed(order):
            if node in assigned:
                continue
            component: List[str] = []
            stack2 = [node]
            assigned.add(node)
            while stack2:
                current = stack2.pop()
                component.append(current)
                for prev in sorted(radj[current]):
                    if prev not in assigned:
                        assigned.add(prev)
                        stack2.append(prev)
            has_cycle = len(component) > 1 or any(
                e.src == node and e.dst == node for e in self.edges
            )
            if has_cycle:
                components.append(sorted(component))
        return sorted(components)

    def edge_for(self, src: str, dst: str) -> Optional[FlowEdge]:
        for edge in self.edges:
            if edge.src == src and edge.dst == dst:
                return edge
        return None

    # -- serialisation ----------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        senders: Dict[str, List[Dict[str, object]]] = {}
        for site in sorted(
            self.sends, key=lambda s: (s.message, s.relpath, s.lineno, s.via)
        ):
            senders.setdefault(site.message, []).append(
                {
                    "context": site.context,
                    "path": site.relpath,
                    "line": site.lineno,
                    "via": site.via,
                    "delayed": site.delayed,
                }
            )
        handlers: Dict[str, List[Dict[str, object]]] = {}
        for hsite in sorted(
            self.handlers, key=lambda h: (h.message, h.relpath, h.lineno, h.kind)
        ):
            handlers.setdefault(hsite.message, []).append(
                {
                    "context": hsite.context,
                    "path": hsite.relpath,
                    "line": hsite.lineno,
                    "kind": hsite.kind,
                }
            )
        return {
            "schema": "repro.analysis/flowgraph-v1",
            "messages": [
                {
                    "name": node.name,
                    "module": node.module,
                    "path": node.relpath,
                    "line": node.lineno,
                    "bases": node.bases,
                    "family": self.family(node.name),
                    "senders": senders.get(node.name, []),
                    "handlers": handlers.get(node.name, []),
                    "dead": not self.is_handled(node.name)
                    and node.name in self.sent_names(),
                    "orphan": not self.is_sent(node.name)
                    and node.name in self.handled_names(),
                }
                for _, node in sorted(self.messages.items())
            ],
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "context": e.context,
                    "path": e.relpath,
                    "line": e.lineno,
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.src, e.dst, e.relpath, e.lineno)
                )
            ],
            "cycles": self.same_tick_cycles(),
        }

    def to_dot(self) -> str:
        lines = [
            "digraph message_flow {",
            "  rankdir=LR;",
            '  node [shape=box, fontname="Helvetica", fontsize=10];',
            '  edge [fontname="Helvetica", fontsize=9];',
        ]
        families: Dict[str, List[MessageNode]] = {}
        for _, node in sorted(self.messages.items()):
            families.setdefault(self.family(node.name), []).append(node)
        for index, family in enumerate(sorted(families)):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f'    label="{family}"; color=gray60;')
            for node in families[family]:
                attrs = []
                if not self.is_handled(node.name) and node.name in self.sent_names():
                    attrs.append('color=red, xlabel="dead"')
                elif not self.is_sent(node.name) and node.name in self.handled_names():
                    attrs.append('color=orange, xlabel="orphan"')
                extra = f" [{', '.join(attrs)}]" if attrs else ""
                lines.append(f'    "{node.name}"{extra};')
            lines.append("  }")
        for edge in sorted(
            self.edges, key=lambda e: (e.src, e.dst, e.relpath, e.lineno)
        ):
            context = edge.context.rsplit(".", 1)[-1]
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [label="{context}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def family(self, message: str) -> str:
        """Coarse family used for DOT clustering and the docs rendering."""
        mro = self._mro(message)
        for marker in (
            "TransportControl",
            "OrderingControl",
            "MembershipControl",
            "DataMessage",
            "BatchEnvelope",
            "ControlMessage",
        ):
            if marker in mro[1:] or message == marker:
                return marker
        node = self.messages.get(message)
        if node is not None and node.module:
            return node.module.rsplit(".", 1)[-1]
        return "app"

    # -- construction -----------------------------------------------------------

    def _mro(self, message: str) -> List[str]:
        infos = self.code.by_name.get(message, [])
        if not infos:
            return [message]
        return self.code.mro_names(infos[0].qualname)

    def _build(self) -> None:
        for qualname in sorted(self.code.functions):
            self._summaries[qualname] = self._extract(self.code.functions[qualname])
        self._propagate()
        self._collect_handlers()
        self._collect_registrations()
        self._assemble_catalogue()
        self._build_edges()

    # Pass 1: per-function send extraction -------------------------------------

    def _extract(self, func: FunctionInfo) -> _Summary:
        summary = _Summary(func=func)
        args = func.node.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                ann = _annotation_class(arg.annotation)
                if ann:
                    summary.param_annotations[arg.arg] = ann.rsplit(".", 1)[-1]
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                ctor = self._ctor_name(node.value, summary)
                if ctor:
                    summary.local_ctors[node.targets[0].id] = ctor
        for call, delayed, via in self._iter_send_calls(func):
            payload = self._payload_expr(call, via)
            if payload is None:
                continue
            resolved = self._resolve_payload(payload, summary)
            if resolved is None:
                continue
            kind, value = resolved
            if kind == "class":
                self.sends.append(
                    SendSite(
                        message=value,
                        context=func.qualname,
                        relpath=func.relpath,
                        lineno=call.lineno,
                        via=via,
                        delayed=delayed,
                    )
                )
            elif kind == "param":
                summary.sends_params.setdefault(value, call.lineno)
        return summary

    def _iter_send_calls(
        self, func: FunctionInfo
    ) -> Iterable[Tuple[ast.Call, bool, str]]:
        """Yield (call, delayed, via) for direct and timer-wrapped sends."""
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_method_name(node)
            if name in SEND_ARG:
                yield node, False, name
            elif name in TIMER_FUNCS:
                unwrapped = self._unwrap_timer(node)
                if unwrapped is not None:
                    inner, delayed, inner_name = unwrapped
                    if inner_name in SEND_ARG:
                        yield inner, delayed, f"{name}->{inner_name}"

    def _call_method_name(self, call: ast.Call) -> Optional[str]:
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        if isinstance(call.func, ast.Name):
            return call.func.id
        return None

    def _unwrap_timer(
        self, call: ast.Call
    ) -> Optional[Tuple[ast.Call, bool, Optional[str]]]:
        """Rewrite ``x.set_timer(d, fn, *args)`` as a synthetic ``fn(*args)``
        call, with the delayed flag from ``d``.  ``call_at`` and ``post_at``
        take a time, not a delay, and are always delayed; a literal-zero
        delay fires within the current tick."""
        name = self._call_method_name(call)
        if name not in TIMER_FUNCS:
            return None
        delay_idx, fn_idx = TIMER_FUNCS[name]
        if len(call.args) <= fn_idx:
            return None
        delay = call.args[delay_idx]
        delayed = True
        if (
            name not in ("call_at", "post_at")
            and isinstance(delay, ast.Constant)
            and delay.value in (0, 0.0)
        ):
            delayed = False
        fn = call.args[fn_idx]
        synthetic = ast.Call(func=fn, args=list(call.args[fn_idx + 1 :]), keywords=[])
        ast.copy_location(synthetic, call)
        inner_name = self._call_method_name(synthetic)
        return synthetic, delayed, inner_name

    def _payload_expr(self, call: ast.Call, via: str) -> Optional[ast.AST]:
        primitive = via.rsplit(">", 1)[-1]
        table = SEND_ARG[primitive]
        args = list(call.args)
        # Unbound form ``Process.send(member, dst, payload)``: the receiver
        # is a class name, so the first positional argument is ``self``.
        if isinstance(call.func, ast.Attribute):
            receiver = dotted_name(call.func.value)
            if receiver and receiver in self.code.by_name:
                args = args[1:]
        index = table.get(len(args))
        if index is None:
            return None
        return args[index]

    def _ctor_name(
        self, node: ast.AST, summary: Optional[_Summary] = None
    ) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        name = dotted_name(node.func)
        if name is None:
            return None
        tail = name.rsplit(".", 1)[-1]
        if not tail[:1].isupper():
            return None
        if tail in self.code.by_name:
            return tail
        # Imported-but-unscanned classes (fixture mode): accept only names
        # bound to this tree's own packages, so ``OrderedDict(...)`` does
        # not masquerade as a wire message.
        if summary is not None:
            head = name.partition(".")[0]
            binding = self.code.imports.get(summary.func.relpath, {}).get(head)
            if binding and (
                binding.startswith("repro.") or binding.startswith(".")
            ):
                return tail
        return None

    def _resolve_payload(
        self, expr: ast.AST, summary: _Summary
    ) -> Optional[Tuple[str, str]]:
        ctor = self._ctor_name(expr, summary)
        if ctor:
            return ("class", ctor)
        if isinstance(expr, ast.Name):
            if expr.id in summary.local_ctors:
                return ("class", summary.local_ctors[expr.id])
            if expr.id in summary.func.params:
                return ("param", expr.id)
        return None

    # Pass 2: fixpoint over forwarders ------------------------------------------

    def _propagate(self) -> None:
        seen_sends = {
            (s.message, s.context, s.lineno, s.via) for s in self.sends
        }
        for _ in range(12):
            changed = False
            for qualname in sorted(self._summaries):
                summary = self._summaries[qualname]
                for call, delayed in self._iter_plain_calls(summary.func):
                    for callee in self._callee_candidates(call, summary):
                        target = self._summaries.get(callee.qualname)
                        if target is None or not target.sends_params:
                            continue
                        for param in sorted(target.sends_params):
                            arg = self._arg_for_param(call, callee, param)
                            if arg is None:
                                continue
                            resolved = self._resolve_payload(arg, summary)
                            if resolved is None:
                                continue
                            kind, value = resolved
                            if kind == "class":
                                key = (
                                    value,
                                    qualname,
                                    call.lineno,
                                    f"{callee.name}({param})",
                                )
                                if key not in seen_sends:
                                    seen_sends.add(key)
                                    self.sends.append(
                                        SendSite(
                                            message=value,
                                            context=qualname,
                                            relpath=summary.func.relpath,
                                            lineno=call.lineno,
                                            via=key[3],
                                            delayed=delayed,
                                        )
                                    )
                                    changed = True
                            elif kind == "param":
                                if value not in summary.sends_params:
                                    summary.sends_params[value] = call.lineno
                                    changed = True
            if not changed:
                break

    def _iter_plain_calls(
        self, func: FunctionInfo
    ) -> Iterable[Tuple[ast.Call, bool]]:
        """Every call that is not itself a send primitive, with timer
        callbacks unwrapped into synthetic calls."""
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_method_name(node)
            if name in SEND_ARG:
                continue
            if name in TIMER_FUNCS:
                unwrapped = self._unwrap_timer(node)
                if unwrapped is not None:
                    inner, delayed, inner_name = unwrapped
                    if inner_name is not None and inner_name not in SEND_ARG:
                        yield inner, delayed
                continue
            yield node, False

    def _callee_candidates(
        self, call: ast.Call, summary: _Summary
    ) -> List[FunctionInfo]:
        """Resolve a call to scanned functions, bound by receiver class.

        ``self.m(...)`` resolves within the owner chain plus subtype
        overrides (dynamic dispatch); an inferred-class receiver resolves
        the same way; a plain name resolves to a same-module free
        function.  An unresolvable receiver yields nothing — the graph
        under-approximates rather than guessing by name alone.
        """
        func = summary.func
        if isinstance(call.func, ast.Name):
            candidate = self.code.functions.get(
                f"{self._module_key(func)}.{call.func.id}"
            )
            return [candidate] if candidate is not None else []
        if not isinstance(call.func, ast.Attribute):
            return []
        method = call.func.attr
        receiver_classes = self._expr_classes(call.func.value, summary)
        out: Dict[str, FunctionInfo] = {}
        for cls in sorted(receiver_classes):
            for candidate in self._methods_for(cls, method):
                out[candidate.qualname] = candidate
        return [out[q] for q in sorted(out)]

    def _module_key(self, func: FunctionInfo) -> str:
        return func.module or func.relpath

    def _expr_classes(self, expr: ast.AST, summary: _Summary) -> Set[str]:
        """Candidate class qualnames for a receiver expression."""
        func = summary.func
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.owner:
                return {func.owner}
            if expr.id in summary.param_annotations:
                info = self.code.class_for(summary.param_annotations[expr.id])
                return {info.qualname} if info else set()
            if expr.id in summary.local_ctors:
                info = self.code.class_for(summary.local_ctors[expr.id])
                return {info.qualname} if info else set()
            return set()
        if isinstance(expr, ast.Attribute):
            bases = self._expr_classes(expr.value, summary)
            found: Set[str] = set()
            for base in sorted(bases):
                for candidate in sorted(
                    self.code.attr_candidates(base, expr.attr)
                ):
                    info = self.code.class_for(candidate)
                    if info:
                        found.add(info.qualname)
                # A property/getter with a return annotation also types
                # the attribute (``ProtocolStack.ordering -> ProtocolLayer``).
                for method in self._methods_for(base, expr.attr):
                    returns = getattr(method.node, "returns", None)
                    if returns is None:
                        continue
                    ann = _annotation_class(returns)
                    if ann:
                        info = self.code.class_for(ann.rsplit(".", 1)[-1])
                        if info:
                            found.add(info.qualname)
            return found
        return set()

    def _methods_for(self, class_qualname: str, method: str) -> List[FunctionInfo]:
        """Static resolution up the base chain, plus every subtype override
        (models dynamic dispatch on the receiver)."""
        out: Dict[str, FunctionInfo] = {}
        cursor: Optional[str] = class_qualname
        hops = 0
        while cursor is not None and hops < 10:
            info = self.code.class_for(cursor)
            if info is None:
                break
            if method in info.methods:
                out[info.methods[method].qualname] = info.methods[method]
                break
            cursor = info.base_names[0] if info.base_names else None
            hops += 1
        root_info = self.code.class_for(class_qualname)
        if root_info is not None:
            for sub in self.code.subtypes_of(root_info.qualname):
                if sub.qualname != root_info.qualname and method in sub.methods:
                    out[sub.methods[method].qualname] = sub.methods[method]
        return [out[q] for q in sorted(out)]

    def _arg_for_param(
        self, call: ast.Call, callee: FunctionInfo, param: str
    ) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == param:
                return keyword.value
        if param not in callee.params:
            return None
        position = callee.params.index(param)
        if callee.owner is not None and callee.params[:1] == ["self"]:
            position -= 1  # bound call: ``self`` is not in the arg list
        if 0 <= position < len(call.args):
            return call.args[position]
        return None

    # Pass 3: handler surface ----------------------------------------------------

    def _collect_handlers(self) -> None:
        for qualname in sorted(self._summaries):
            summary = self._summaries[qualname]
            func = summary.func
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                name = self._call_method_name(node)
                if name == "add_message_handler" and len(node.args) >= 2:
                    message = dotted_name(node.args[0])
                    if message is None:
                        continue
                    handler = self._handler_target(node.args[1], func)
                    self.handlers.append(
                        HandlerSite(
                            message=message.rsplit(".", 1)[-1],
                            context=handler,
                            relpath=func.relpath,
                            lineno=node.lineno,
                            kind="typed",
                        )
                    )
                elif name == "isinstance" and len(node.args) == 2:
                    for message in self._isinstance_classes(node.args[1]):
                        self.handlers.append(
                            HandlerSite(
                                message=message,
                                context=func.qualname,
                                relpath=func.relpath,
                                lineno=node.lineno,
                                kind="isinstance",
                            )
                        )

    def _handler_target(self, expr: ast.AST, func: FunctionInfo) -> str:
        """Resolve the handler argument of ``add_message_handler`` to a
        scanned function qualname (best effort; "" when opaque)."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and func.owner:
                for method in self._methods_for(func.owner, expr.attr):
                    return method.qualname
        if isinstance(expr, ast.Name):
            candidate = self.code.functions.get(
                f"{self._module_key(func)}.{expr.id}"
            )
            if candidate is not None:
                return candidate.qualname
        return ""

    def _isinstance_classes(self, expr: ast.AST) -> List[str]:
        nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        out = []
        for node in nodes:
            name = dotted_name(node)
            if name:
                tail = name.rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    out.append(tail)
        return out

    def _collect_registrations(self) -> None:
        for mod in self.modules:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = self._call_method_name(node)
                if name != "register_layer" or len(node.args) < 2:
                    continue
                cls = dotted_name(node.args[1])
                if cls:
                    tail = cls.rsplit(".", 1)[-1]
                    # Decorator helpers pass a lowercase local (``_cls``);
                    # only literal class references name the layer.
                    if tail[:1].isupper():
                        self.registered_layers.add(tail)

    # Pass 4: catalogue ----------------------------------------------------------

    def _assemble_catalogue(self) -> None:
        names: Set[str] = set()
        for qualname, info in sorted(self.code.classes.items()):
            if info.module == MESSAGES_MODULE:
                names.add(info.name)
        names |= self.sent_names()
        names |= {h.message for h in self.handlers if h.kind == "typed"}
        # isinstance sites only count as handlers for classes already in
        # the catalogue family — ``isinstance(x, dict)`` is dispatch on a
        # payload shape, not a wire message.
        catalogue_mros = {name: set(self._mro(name)) for name in sorted(names)}
        kept: List[HandlerSite] = []
        for site in self.handlers:
            if site.kind == "typed":
                kept.append(site)
                continue
            related = site.message in names or any(
                site.message in mro for mro in catalogue_mros.values()
            )
            if related:
                kept.append(site)
        self.handlers = kept
        for name in sorted(names):
            infos = self.code.by_name.get(name, [])
            if infos:
                info = infos[0]
                self.messages[name] = MessageNode(
                    name=name,
                    relpath=info.relpath,
                    lineno=info.lineno,
                    module=info.module,
                    bases=self.code.mro_names(info.qualname)[1:],
                )
            else:
                self.messages[name] = MessageNode(
                    name=name, relpath="", lineno=0, module=""
                )

    # Pass 5: same-tick edges ----------------------------------------------------

    def _build_edges(self) -> None:
        edge_index: Dict[Tuple[str, str], FlowEdge] = {}
        for site in sorted(
            self.handlers, key=lambda h: (h.message, h.relpath, h.lineno)
        ):
            func = self.code.functions.get(site.context)
            if func is None:
                continue
            sources = [site.message] + [
                name
                for name in sorted(self.messages)
                if name != site.message and site.message in self._mro(name)
            ]
            for source in sources:
                payload = self._payload_param(func, site)
                found: Set[Tuple[str, str, int]] = set()
                self._closure(func, payload, source, 0, found, set())
                for dst, relpath, lineno in sorted(found):
                    key = (source, dst)
                    if key not in edge_index:
                        edge_index[key] = FlowEdge(
                            src=source,
                            dst=dst,
                            context=func.qualname,
                            relpath=relpath,
                            lineno=lineno,
                        )
        self.edges = [edge_index[k] for k in sorted(edge_index)]

    def _payload_param(
        self, func: FunctionInfo, site: HandlerSite
    ) -> Optional[str]:
        """Which parameter of the handler carries the message?

        Typed handlers follow the ``(self, src, payload)`` dispatch shape —
        the last parameter.  For isinstance dispatchers the payload is
        whichever parameter the ``isinstance`` tests actually examine:
        the ``on_deliver`` callback shape is ``(src, payload, msg)``, so
        "last parameter" would pick the envelope, not the payload.
        """
        params = [p for p in func.params if p != "self"]
        if not params:
            return None
        if site.kind == "isinstance":
            tested: Dict[str, int] = {}
            for node in ast.walk(func.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    tested[node.args[0].id] = tested.get(node.args[0].id, 0) + 1
            if tested:
                return max(sorted(tested), key=lambda name: tested[name])
        return params[-1]

    def _closure(
        self,
        func: FunctionInfo,
        payload: Optional[str],
        message: str,
        depth: int,
        out: Set[Tuple[str, str, int]],
        seen: Set[Tuple[str, Optional[str], str]],
    ) -> None:
        key = (func.qualname, payload, message)
        if key in seen or depth > _CLOSURE_DEPTH:
            return
        seen.add(key)
        summary = self._summaries.get(func.qualname)
        if summary is None:
            return
        self._walk_statements(
            list(func.node.body), summary, payload, message, depth, out, seen
        )

    def _walk_statements(
        self,
        stmts: List[ast.stmt],
        summary: _Summary,
        payload: Optional[str],
        message: str,
        depth: int,
        out: Set[Tuple[str, str, int]],
        seen: Set[Tuple[str, Optional[str], str]],
    ) -> None:
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If):
                guard = self._isinstance_guard(stmt.test, payload)
                if guard is not None:
                    classes, negated = guard
                    matches = any(c in self._mro(message) for c in classes)
                    if not negated:
                        if matches:
                            self._walk_statements(
                                stmt.body, summary, payload, message,
                                depth, out, seen,
                            )
                        else:
                            self._walk_statements(
                                stmt.orelse, summary, payload, message,
                                depth, out, seen,
                            )
                    else:
                        # ``if not isinstance(p, C): return`` — the guard
                        # protects the rest of this block.
                        if matches:
                            continue
                        self._walk_statements(
                            stmt.body, summary, payload, message,
                            depth, out, seen,
                        )
                        if _ends_flow(stmt.body):
                            return
                    continue
                self._walk_expr_sends(
                    stmt.test, summary, payload, message, depth, out, seen
                )
                self._walk_statements(
                    stmt.body, summary, payload, message, depth, out, seen
                )
                self._walk_statements(
                    stmt.orelse, summary, payload, message, depth, out, seen
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._walk_expr_sends(
                    stmt.iter, summary, payload, message, depth, out, seen
                )
                self._walk_statements(
                    stmt.body, summary, payload, message, depth, out, seen
                )
                self._walk_statements(
                    stmt.orelse, summary, payload, message, depth, out, seen
                )
            elif isinstance(stmt, ast.While):
                self._walk_expr_sends(
                    stmt.test, summary, payload, message, depth, out, seen
                )
                self._walk_statements(
                    stmt.body, summary, payload, message, depth, out, seen
                )
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk_statements(
                    stmt.body, summary, payload, message, depth, out, seen
                )
            elif isinstance(stmt, ast.Try):
                self._walk_statements(
                    stmt.body, summary, payload, message, depth, out, seen
                )
                for handler in stmt.handlers:
                    self._walk_statements(
                        handler.body, summary, payload, message, depth, out, seen
                    )
                self._walk_statements(
                    stmt.finalbody, summary, payload, message, depth, out, seen
                )
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            else:
                self._walk_expr_sends(
                    stmt, summary, payload, message, depth, out, seen
                )

    def _isinstance_guard(
        self, test: ast.AST, payload: Optional[str]
    ) -> Optional[Tuple[List[str], bool]]:
        """Recognise ``isinstance(payload, C)`` / ``not isinstance(...)``
        tests on the threaded payload variable."""
        if payload is None:
            return None
        negated = False
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            negated = True
            test = test.operand
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
            and test.args[0].id == payload
        ):
            classes = self._isinstance_classes(test.args[1])
            # Guards on non-message classes (dict, tuple) do not narrow.
            message_like = [c for c in classes if c in self.messages]
            if message_like or (classes and not message_like):
                if not message_like:
                    return None
                return message_like, negated
        return None

    def _walk_expr_sends(
        self,
        stmt: ast.AST,
        summary: _Summary,
        payload: Optional[str],
        message: str,
        depth: int,
        out: Set[Tuple[str, str, int]],
        seen: Set[Tuple[str, Optional[str], str]],
    ) -> None:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_method_name(node)
            if name in SEND_ARG:
                expr = self._payload_expr(node, name)
                if expr is None:
                    continue
                resolved = self._resolve_payload(expr, summary)
                if resolved is None:
                    continue
                kind, value = resolved
                if kind == "class":
                    out.add((value, summary.func.relpath, node.lineno))
                # kind == "param": forwarding the handled object itself —
                # a forward re-routes existing work, it does not mint new
                # messages, so it is not a same-tick edge.
                continue
            if name in TIMER_FUNCS:
                unwrapped = self._unwrap_timer(node)
                if unwrapped is None:
                    continue
                inner, delayed, inner_name = unwrapped
                if delayed:
                    continue  # next tick breaks any livelock
                if inner_name in SEND_ARG:
                    expr = self._payload_expr(inner, inner_name)
                    if expr is not None:
                        resolved = self._resolve_payload(expr, summary)
                        if resolved is not None and resolved[0] == "class":
                            out.add(
                                (resolved[1], summary.func.relpath, inner.lineno)
                            )
                    continue
                node = inner
                name = inner_name
            for callee in self._callee_candidates(node, summary):
                new_payload = None
                if payload is not None:
                    new_payload = self._passed_param(node, callee, payload)
                if callee.name in DISPATCH_ENTRYPOINTS and new_payload is None:
                    continue
                self._closure(callee, new_payload, message, depth + 1, out, seen)

    def _passed_param(
        self, call: ast.Call, callee: FunctionInfo, payload: str
    ) -> Optional[str]:
        """If the payload variable is passed to the callee, which callee
        parameter receives it?"""
        for keyword in call.keywords:
            if isinstance(keyword.value, ast.Name) and keyword.value.id == payload:
                return keyword.arg
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and arg.id == payload:
                shifted = position
                if callee.owner is not None and callee.params[:1] == ["self"]:
                    shifted += 1
                if shifted < len(callee.params):
                    return callee.params[shifted]
        return None


def _ends_flow(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def flow_graph_for(project) -> FlowGraph:  # type: ignore[no-untyped-def]
    """Build (or reuse) the flow graph for a Project.

    Cached on the project object so the four FLOW rules and the ``graph``
    CLI subcommand share one construction.
    """
    cached = getattr(project, "_flow_graph", None)
    if cached is not None:
        return cached
    graph = code_graph_for(project)
    flow = FlowGraph(project.src_modules, graph)
    project._flow_graph = flow
    return flow


def code_graph_for(project) -> CodeGraph:  # type: ignore[no-untyped-def]
    cached = getattr(project, "_code_graph", None)
    if cached is not None:
        return cached
    from repro.analysis.callgraph import build_code_graph

    graph = build_code_graph(project.src_modules)
    project._code_graph = graph
    return graph


__all__ = [
    "FlowGraph",
    "FlowEdge",
    "SendSite",
    "HandlerSite",
    "MessageNode",
    "flow_graph_for",
    "code_graph_for",
    "LAYER_ROOT",
]
