"""FLOW003-004: message-flow rules over the interprocedural graph.

These rules read the graph built by :mod:`repro.analysis.flowgraph`
(construction is cached on the Project, so both rules and the ``graph``
CLI subcommand share one pass).  Dead messages and orphan handlers are
not rules: the wiring gate in ``tests/analysis/test_flowgraph.py`` checks
the same graph for them.

- **FLOW003** — same-tick send cycle: handling message A can send B in
  the same tick and handling B can send A — the tick need not drain.
  Bounded request/reply chains are the legitimate shape that trips this;
  the suppression comment is where the bound gets argued.
- **FLOW004** — a ``DataMessage``-family payload constructed and sent
  outside the ``repro.catocs`` stack machinery (not a registered
  ``ProtocolLayer``, not catocs core) — traffic crossing the layer
  boundary without passing through the ``resolve_spec``-declared layers.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.analysis.callgraph import LAYER_ROOT
from repro.analysis.finding import Finding, Severity
from repro.analysis.flowgraph import FlowGraph, flow_graph_for
from repro.analysis.rules import Rule
from repro.analysis.source import SourceModule


class _FlowRule(Rule):
    severity = Severity.ERROR

    def check_project(self, project) -> Iterable[Finding]:  # type: ignore[no-untyped-def]
        flow = flow_graph_for(project)
        by_relpath: Dict[str, SourceModule] = {
            m.relpath: m for m in project.src_modules
        }
        return self.check_flow(project, flow, by_relpath)

    def check_flow(
        self,
        project,  # type: ignore[no-untyped-def]
        flow: FlowGraph,
        by_relpath: Dict[str, SourceModule],
    ) -> Iterable[Finding]:
        raise NotImplementedError


class SendCycleRule(_FlowRule):
    """FLOW003: same-tick send cycles."""

    rule_id = "FLOW003"
    title = "same-tick send cycle: the tick need not drain"

    def check_flow(self, project, flow, by_relpath):  # type: ignore[no-untyped-def]
        for component in flow.same_tick_cycles():
            edges = sorted(
                (
                    e
                    for e in flow.edges
                    if e.src in component and e.dst in component
                ),
                key=lambda e: (e.src, e.dst),
            )
            anchor = edges[0]
            chain = " -> ".join(component + [component[0]])
            yield self.finding_at(
                by_relpath,
                anchor.relpath,
                anchor.lineno,
                f"same-tick send cycle {chain}: each handler can send the "
                "next message within the tick, so one tick can host an "
                "unbounded exchange",
                hint="break the cycle with a timer (next-tick) hop, or — "
                "for a request/reply chain bounded by pending work — "
                "suppress with `# repro: ignore[FLOW003]` and state the "
                "bound",
            )


class LayerBypassRule(_FlowRule):
    """FLOW004: DataMessage-family traffic minted outside the stack."""

    rule_id = "FLOW004"
    title = "data message sent outside the declared protocol layers"

    def check_flow(self, project, flow, by_relpath):  # type: ignore[no-untyped-def]
        graph = flow.code
        for site in sorted(
            flow.sends, key=lambda s: (s.relpath, s.lineno, s.message)
        ):
            mro = graph.mro_names(site.message)
            if "DataMessage" not in mro and "BatchEnvelope" not in mro:
                continue
            func = graph.functions.get(site.context)
            module = func.module if func is not None else ""
            if module.startswith("repro.catocs"):
                continue
            owner = func.owner if func is not None else None
            owner_name = owner.rsplit(".", 1)[-1] if owner else ""
            if owner is not None and graph.is_subtype(owner, LAYER_ROOT):
                continue
            if owner_name in flow.registered_layers:
                continue
            yield self.finding_at(
                by_relpath,
                site.relpath,
                site.lineno,
                f"`{site.message}` (DataMessage family) is constructed and "
                f"sent from `{site.context}`, which is neither catocs core "
                "nor a registered ProtocolLayer — the payload skips the "
                "resolve_spec-declared layer stack",
                hint="send application payloads via member.multicast / "
                "member.send and let the stack mint the wire envelope",
            )


__all__ = [
    "SendCycleRule",
    "LayerBypassRule",
]
