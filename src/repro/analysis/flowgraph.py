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

This module builds that view, statically, from the parsed tree.  Each
function body is walked once, into a :class:`Summary` (constructor
locals, send calls, other calls, dispatch calls); every pass after that
reads the summaries:

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
   handler, :class:`HandlerWalk` walks the handler body — descending only
   into ``isinstance`` arms the class can actually take, following calls
   with the payload identity threaded through — and :class:`EdgeWalk`
   records which message classes the handler can construct-and-send *in
   the same tick*.  Forwarding the handled object itself is not an edge
   (a forward does not mint new work), and timer-delayed sends are
   excluded (next tick breaks the livelock).

The effect table (:mod:`repro.analysis.effects`) subclasses the same
walker, so the two views cannot disagree about what a handler reaches.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import annotation_class, called_name, dotted_name
from repro.analysis.callgraph import (
    CodeGraph,
    FunctionInfo,
    LAYER_ROOT,
    code_graph_for,
)
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
class Summary:
    """What one walk of a function body found, read by every later pass."""

    func: FunctionInfo
    local_ctors: Dict[str, str] = field(default_factory=dict)
    param_annotations: Dict[str, str] = field(default_factory=dict)
    sends_params: Dict[str, int] = field(default_factory=dict)  # name -> line
    #: send primitive calls, timer callbacks unwrapped: (call, delayed, via)
    send_calls: List[Tuple[ast.Call, bool, str]] = field(default_factory=list)
    #: every other call, timer callbacks unwrapped: (call, delayed)
    plain_calls: List[Tuple[ast.Call, bool]] = field(default_factory=list)
    #: ``add_message_handler(...)`` and ``isinstance(...)`` calls
    dispatch_calls: List[ast.Call] = field(default_factory=list)


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
        self.summaries: Dict[str, Summary] = {}
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
        return any(name in handled for name in self.code.mro_names(message))

    def is_sent(self, message: str) -> bool:
        """Is ``message`` or any scanned subclass of it ever sent?"""
        sent = self.sent_names()
        if message in sent:
            return True
        return any(message in self.code.mro_names(other) for other in sent)

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
        mro = self.code.mro_names(message)
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

    def _build(self) -> None:
        for qualname in sorted(self.code.functions):
            self.summaries[qualname] = self._extract(self.code.functions[qualname])
        self._propagate()
        self._collect_handlers()
        self._collect_registrations()
        self._assemble_catalogue()
        self._build_edges()

    # Pass 1: one walk per function ------------------------------------------------

    def _extract(self, func: FunctionInfo) -> Summary:
        summary = Summary(func=func)
        args = func.node.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                ann = annotation_class(arg.annotation)
                if ann:
                    summary.param_annotations[arg.arg] = ann.rsplit(".", 1)[-1]
        calls: List[ast.Call] = []
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                ctor = self._ctor_name(node.value, summary)
                if ctor:
                    summary.local_ctors[node.targets[0].id] = ctor
        for call in calls:
            name = called_name(call)
            if name in ("add_message_handler", "isinstance"):
                summary.dispatch_calls.append(call)
            if name in SEND_ARG:
                summary.send_calls.append((call, False, name))
            elif name in TIMER_FUNCS:
                unwrapped = unwrap_timer(call)
                if unwrapped is None:
                    continue
                inner, delayed, inner_name = unwrapped
                if inner_name in SEND_ARG:
                    summary.send_calls.append(
                        (inner, delayed, f"{name}->{inner_name}")
                    )
                elif inner_name is not None:
                    summary.plain_calls.append((inner, delayed))
            else:
                summary.plain_calls.append((call, False))
        for call, delayed, via in summary.send_calls:
            payload = self.payload_expr(call, via)
            if payload is None:
                continue
            resolved = self.resolve_payload(payload, summary)
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

    def payload_expr(self, call: ast.Call, via: str) -> Optional[ast.AST]:
        """The payload argument of a send primitive call, by arity."""
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

    def _ctor_name(self, node: ast.AST, summary: Summary) -> Optional[str]:
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
        head = name.partition(".")[0]
        binding = self.code.imports.get(summary.func.relpath, {}).get(head)
        if binding and (binding.startswith("repro.") or binding.startswith(".")):
            return tail
        return None

    def resolve_payload(
        self, expr: ast.AST, summary: Summary
    ) -> Optional[Tuple[str, str]]:
        """``("class", name)`` for a constructed message, ``("param",
        name)`` for a parameter passed through, None when opaque."""
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
            for qualname in sorted(self.summaries):
                summary = self.summaries[qualname]
                for call, delayed in summary.plain_calls:
                    for callee in self.callee_candidates(call, summary):
                        target = self.summaries.get(callee.qualname)
                        if target is None or not target.sends_params:
                            continue
                        for param in sorted(target.sends_params):
                            arg = self._arg_for_param(call, callee, param)
                            if arg is None:
                                continue
                            resolved = self.resolve_payload(arg, summary)
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

    def callee_candidates(
        self, call: ast.Call, summary: Summary
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
                f"{func.module or func.relpath}.{call.func.id}"
            )
            return [candidate] if candidate is not None else []
        if not isinstance(call.func, ast.Attribute):
            return []
        method = call.func.attr
        receiver_classes = self._expr_classes(call.func.value, summary)
        out: Dict[str, FunctionInfo] = {}
        for cls in sorted(receiver_classes):
            for candidate in self.code.methods_for(cls, method):
                out[candidate.qualname] = candidate
        return [out[q] for q in sorted(out)]

    def _expr_classes(self, expr: ast.AST, summary: Summary) -> Set[str]:
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
                for method in self.code.methods_for(base, expr.attr):
                    returns = getattr(method.node, "returns", None)
                    if returns is None:
                        continue
                    ann = annotation_class(returns)
                    if ann:
                        info = self.code.class_for(ann.rsplit(".", 1)[-1])
                        if info:
                            found.add(info.qualname)
            return found
        return set()

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
        for qualname in sorted(self.summaries):
            func = self.summaries[qualname].func
            for node in self.summaries[qualname].dispatch_calls:
                if called_name(node) == "add_message_handler":
                    if len(node.args) < 2:
                        continue
                    message = dotted_name(node.args[0])
                    if message is None:
                        continue
                    self.handlers.append(
                        HandlerSite(
                            message=message.rsplit(".", 1)[-1],
                            context=self._handler_target(node.args[1], func),
                            relpath=func.relpath,
                            lineno=node.lineno,
                            kind="typed",
                        )
                    )
                elif len(node.args) == 2:
                    for message in _isinstance_classes(node.args[1]):
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
                for method in self.code.methods_for(func.owner, expr.attr):
                    return method.qualname
        if isinstance(expr, ast.Name):
            candidate = self.code.functions.get(
                f"{func.module or func.relpath}.{expr.id}"
            )
            if candidate is not None:
                return candidate.qualname
        return ""

    def _collect_registrations(self) -> None:
        for mod in self.modules:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                if called_name(node) != "register_layer" or len(node.args) < 2:
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
        catalogue_mros = {
            name: set(self.code.mro_names(name)) for name in sorted(names)
        }
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
                if name != site.message and site.message in self.code.mro_names(name)
            ]
            for source in sources:
                walk = EdgeWalk(self, source)
                walk.visit(func, self.payload_param(func, site))
                for dst, relpath, lineno in sorted(walk.found):
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

    def payload_param(
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
            for node in self.summaries[func.qualname].dispatch_calls:
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    tested[node.args[0].id] = tested.get(node.args[0].id, 0) + 1
            if tested:
                return max(sorted(tested), key=lambda name: tested[name])
        return params[-1]


def unwrap_timer(call: ast.Call) -> Optional[Tuple[ast.Call, bool, Optional[str]]]:
    """Rewrite ``x.set_timer(d, fn, *args)`` as a synthetic ``fn(*args)``
    call, with the delayed flag from ``d`` and the synthetic call's name.
    ``call_at`` and ``post_at`` take a time, not a delay, and are always
    delayed; a literal-zero delay fires within the current tick."""
    name = called_name(call)
    if name not in TIMER_FUNCS:
        return None
    delay_idx, fn_idx = TIMER_FUNCS[name]
    if len(call.args) <= fn_idx:
        return None
    delay = call.args[delay_idx]
    delayed = not (
        name not in ("call_at", "post_at")
        and isinstance(delay, ast.Constant)
        and delay.value in (0, 0.0)
    )
    synthetic = ast.Call(
        func=call.args[fn_idx], args=list(call.args[fn_idx + 1 :]), keywords=[]
    )
    ast.copy_location(synthetic, call)
    return synthetic, delayed, called_name(synthetic)


def passed_param(call: ast.Call, callee: FunctionInfo, payload: str) -> Optional[str]:
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


def _isinstance_classes(expr: ast.AST) -> List[str]:
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    out = []
    for node in nodes:
        name = dotted_name(node)
        if name:
            tail = name.rsplit(".", 1)[-1]
            if tail[:1].isupper():
                out.append(tail)
    return out


def _ends_flow(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_target_names(element))
        return out
    return []


@dataclass
class Frame:
    """One function on a handler walk."""

    summary: Summary
    payload: Optional[str]  # the parameter carrying the handled message
    depth: int
    delayed: bool  # reached through a timer that fires after this tick
    #: locals holding payload-derived values (loop keys, extracted fields)
    derived: Set[str] = field(default_factory=set)


class HandlerWalk:
    """The one narrowing walk over a handler and the calls it reaches.

    It walks a function body for one handled message class, descends only
    into the ``isinstance`` arms that class can take, hands every send to
    :meth:`send`, and follows every other call into the callees it may
    resolve to, threading through the parameter that carries the payload
    and the *delayed* flag (set once the walk crosses a timer callback
    with a non-zero delay).  A collector subclasses it: :class:`EdgeWalk`
    for the same-tick edges here, the effect walk in
    :mod:`repro.analysis.effects` for reads, writes and sends.
    """

    max_depth = 8  # call frames followed below the handler

    def __init__(self, flow: FlowGraph, message: str) -> None:
        self.flow = flow
        self.mro = flow.code.mro_names(message)
        self._seen: Set[Tuple[str, Optional[str]]] = set()

    def visit(
        self,
        func: FunctionInfo,
        payload: Optional[str],
        depth: int = 0,
        delayed: bool = False,
        guarded: bool = False,
    ) -> None:
        key = (func.qualname, payload)
        if key in self._seen or depth > self.max_depth:
            return
        self._seen.add(key)
        summary = self.flow.summaries[func.qualname]
        self.walk(func.node.body, Frame(summary, payload, depth, delayed), guarded)

    def walk(self, stmts: List[ast.stmt], frame: Frame, guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                narrowed = self._narrowing(stmt.test, frame.payload)
                if narrowed is not None:
                    classes, negated = narrowed
                    matches = any(c in self.mro for c in classes)
                    if not negated:
                        arm = stmt.body if matches else stmt.orelse
                        self.walk(arm, frame, guarded)
                    elif not matches:
                        # ``if not isinstance(p, C): return`` — the guard
                        # protects the rest of this block.
                        self.walk(stmt.body, frame, guarded)
                        if _ends_flow(stmt.body):
                            return
                    continue
                inner = guarded or self.guards(stmt.test, frame)
                self.scan(stmt.test, frame, guarded)
                self.walk(stmt.body, frame, inner)
                self.walk(stmt.orelse, frame, inner)
                # ``if <guard>: return`` covers the rest of this block.
                if inner and not stmt.orelse and _ends_flow(stmt.body):
                    guarded = True
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.scan(stmt.iter, frame, guarded)
                if self.derives(stmt.iter, frame):
                    frame.derived.update(_target_names(stmt.target))
                self.walk(stmt.body, frame, guarded)
                self.walk(stmt.orelse, frame, guarded)
            elif isinstance(stmt, ast.While):
                self.scan(stmt.test, frame, guarded)
                self.walk(stmt.body, frame, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self.walk(stmt.body, frame, guarded)
            elif isinstance(stmt, ast.Try):
                self.walk(stmt.body, frame, guarded)
                for handler in stmt.handlers:
                    self.walk(handler.body, frame, guarded)
                self.walk(stmt.finalbody, frame, guarded)
            elif not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.statement(stmt, frame, guarded)

    def _narrowing(
        self, test: ast.AST, payload: Optional[str]
    ) -> Optional[Tuple[List[str], bool]]:
        """Recognise ``isinstance(payload, C)`` / ``not isinstance(...)``
        tests on the threaded payload variable; guards on non-message
        classes (dict, tuple) do not narrow."""
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
            classes = _isinstance_classes(test.args[1])
            message_like = [c for c in classes if c in self.flow.messages]
            if message_like:
                return message_like, negated
        return None

    def derives(self, node: Optional[ast.AST], frame: Frame) -> bool:
        """Does ``node`` mention the payload or a local derived from it?"""
        if node is None:
            return False
        names = set(frame.derived)
        if frame.payload is not None:
            names.add(frame.payload)
        return bool(names) and any(
            isinstance(child, ast.Name) and child.id in names
            for child in ast.walk(node)
        )

    def call(self, call: ast.Call, frame: Frame, guarded: bool) -> None:
        """Hand a send (direct or behind a timer) to :meth:`send`; follow
        any other call the collector :meth:`follows`."""
        name = called_name(call)
        delayed = frame.delayed
        if name in TIMER_FUNCS:
            unwrapped = unwrap_timer(call)
            if unwrapped is None:
                return
            call, timer_delayed, name = unwrapped
            delayed = delayed or timer_delayed
        if name in SEND_ARG:
            expr = self.flow.payload_expr(call, name)
            if expr is not None:
                resolved = self.flow.resolve_payload(expr, frame.summary)
                constructed = resolved is not None and resolved[0] == "class"
                message = resolved[1] if constructed else None
                self.send(message, name, call, frame, delayed)
            return
        if not self.follows(call, delayed):
            return
        for callee in self.flow.callee_candidates(call, frame.summary):
            payload = None
            if frame.payload is not None:
                payload = passed_param(call, callee, frame.payload)
            if callee.name in DISPATCH_ENTRYPOINTS and payload is None:
                continue
            self.visit(callee, payload, frame.depth + 1, delayed, guarded)

    # -- collector hooks --------------------------------------------------------

    def guards(self, test: ast.expr, frame: Frame) -> bool:
        """Does this ``if`` test guard what runs below it?"""
        return False

    def statement(self, stmt: ast.stmt, frame: Frame, guarded: bool) -> None:
        """A simple (non-compound) statement."""
        self.scan(stmt, frame, guarded)

    def scan(self, node: ast.AST, frame: Frame, guarded: bool) -> None:
        """An expression, or a simple statement: every call in it."""
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self.call(child, frame, guarded)

    def follows(self, call: ast.Call, delayed: bool) -> bool:
        return True

    def send(
        self,
        message: Optional[str],
        via: str,
        call: ast.Call,
        frame: Frame,
        delayed: bool,
    ) -> None:
        """A send of ``message`` (None unless it is a constructed class)."""
        raise NotImplementedError


class EdgeWalk(HandlerWalk):
    """Same-tick sends of constructed messages: the graph's edges."""

    def __init__(self, flow: FlowGraph, message: str) -> None:
        super().__init__(flow, message)
        self.found: Set[Tuple[str, str, int]] = set()

    def follows(self, call: ast.Call, delayed: bool) -> bool:
        return not delayed  # next tick breaks any livelock

    def send(
        self,
        message: Optional[str],
        via: str,
        call: ast.Call,
        frame: Frame,
        delayed: bool,
    ) -> None:
        # Forwarding the handled object itself (``message`` None) re-routes
        # existing work, it does not mint new messages: not an edge.
        if message is not None and not delayed:
            self.found.add((message, frame.summary.func.relpath, call.lineno))


def flow_graph_for(project) -> FlowGraph:  # type: ignore[no-untyped-def]
    """Build (or reuse) the flow graph for a Project.

    Cached on the project object so the FLOW rules, the effect table and
    the ``graph`` CLI subcommand share one construction.
    """
    cached = getattr(project, "_flow_graph", None)
    if cached is not None:
        return cached
    flow = FlowGraph(project.src_modules, code_graph_for(project))
    project._flow_graph = flow
    return flow


__all__ = [
    "EdgeWalk",
    "FlowGraph",
    "FlowEdge",
    "Frame",
    "HandlerWalk",
    "SendSite",
    "HandlerSite",
    "MessageNode",
    "Summary",
    "flow_graph_for",
    "code_graph_for",
    "LAYER_ROOT",
]
