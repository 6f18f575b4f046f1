"""Static analysis of ``src/`` for determinism and delivery-order assumptions.

The whole reproduction rests on the seeded discrete-event simulator
producing byte-identical reports from ``(seed, parameters)`` alone, and on
handlers not assuming more delivery order than their stack gives.  Both
fail *silently*: a hash-seed-dependent ``set`` iteration or a handler that
needs total order under a causal stack does not crash — it just makes a
run unreproducible, or a replica diverge.  In the spirit of the paper's
own critique (guarantees enforced in the wrong place fail without telling
anyone), this package enforces the invariants *statically*, before a
single event runs.  It parses ``src/repro`` (or the paths it is given) and
nothing else.

Two rule families (see ``docs/ANALYSIS.md`` for the full catalogue):

- **Determinism** (``DET*``): wall-clock calls outside
  :mod:`repro.runtime`, unseeded ``random`` draws, iteration over
  unordered containers feeding ordering-sensitive sinks, ``id()``-based
  comparisons, environment-dependent branches.
- **Ordering semantics** (``ORD*``): handler effects that need a stronger
  delivery order than the configured stack gives, and sends gated on or
  fed by another process's state (the paper's Fig. 1 hidden channel).

Run it with ``python -m repro.analysis`` (one pass over the tree, nothing
kept between runs); suppress a finding in place with
``# repro: ignore[rule-id]``.
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
