"""Static analysis for determinism and protocol contracts.

The whole reproduction rests on the seeded discrete-event simulator
producing byte-identical reports from ``(seed, parameters)`` alone, and on
the protocol-stack machinery honouring its layer contracts.  Both fail
*silently*: a hash-seed-dependent ``set`` iteration or an unregistered
message handler does not crash — it just makes a run unreproducible, or a
message vanish.  In the spirit of the paper's own critique (guarantees
enforced in the wrong place fail without telling anyone), this package
enforces the invariants *statically*, before a single event runs.

Five rule families (see ``docs/ANALYSIS.md`` for the full catalogue):

- **Determinism** (``DET*``): wall-clock calls, unseeded ``random`` draws,
  iteration over unordered containers feeding ordering-sensitive sinks,
  ``id()``-based comparisons, environment-dependent branches.
- **Protocol contracts** (``PROTO*``): every registered protocol layer
  implements the :class:`~repro.catocs.stack.ProtocolLayer` surface, every
  spec string in code/tests/docs resolves against the layer registry, every
  wire-message dataclass has a reachable typed handler, and every wire
  message a layer sends has a codec registration.
- **Sim purity** (``PUR*``): simulation packages must not import
  threading/asyncio/wall-clock facilities (that integration lives in
  :mod:`repro.runtime`).
- **Message flow** (``FLOW*``): dead messages, orphan handlers, same-tick
  send cycles, and wire envelopes built outside the protocol stack.
- **Ordering semantics** (``ORD*``): handler effects that need a stronger
  delivery order than the configured stack gives, and sends gated on or
  fed by another process's state (the paper's Fig. 1 hidden channel).

Run it with ``python -m repro.analysis`` (one pass over the tree, nothing
kept between runs); suppress a finding in place with
``# repro: ignore[rule-id]``; grandfather legacy findings in
``analysis-baseline.json``.
"""

from repro.analysis.engine import AnalysisResult, Project, run_analysis
from repro.analysis.finding import Finding, Severity
from repro.analysis.rules import ALL_RULES, Rule, rule_catalogue

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Finding",
    "Project",
    "Rule",
    "Severity",
    "rule_catalogue",
    "run_analysis",
]
