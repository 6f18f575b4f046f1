"""The rule framework: a rule sees parsed sources, yields findings.

A rule subclasses :class:`Rule` and overrides one of two hooks:

- :meth:`Rule.check_module` — called once per Python file in the rule's
  scope.  Most lexical rules live here.
- :meth:`Rule.check_project` — called once with the whole
  :class:`~repro.analysis.engine.Project`; the cross-checking contract
  rules (registry conformance, handler coverage) live here.

Register new rules by appending an *instance* to :data:`ALL_RULES` at
module import (see ``docs/ANALYSIS.md`` for the add-a-rule walkthrough).
The engine deduplicates, suppresses, baselines, and orders findings — a
rule only decides *what* is wrong, never *whether it is reported*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.analysis.finding import Finding, Severity, make_finding
from repro.analysis.source import SourceModule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import Project


class Rule:
    """Base class for one rule id."""

    rule_id = "ABSTRACT"
    title = "abstract rule"
    severity = Severity.ERROR
    #: which file sets :meth:`check_module` sees: "src", "tests", or both.
    scopes = ("src",)
    #: True for rules whose subject is repo-global runtime state (the layer
    #: registry, the message catalogue) rather than the scanned files; the
    #: engine skips them in explicit-paths mode, where that state is not in
    #: view and every verdict would be vacuous.
    repo_only = False

    def check_module(self, mod: SourceModule) -> Iterable[Finding]:
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        return ()

    # -- helpers ---------------------------------------------------------------

    def finding(
        self,
        mod: SourceModule,
        line: int,
        message: str,
        hint: str = "",
        severity: "Severity | None" = None,
    ) -> Finding:
        return make_finding(
            self.rule_id,
            severity or self.severity,
            mod.relpath,
            line,
            message,
            hint=hint,
            source_line=mod.source_line(line),
        )

    def finding_at(
        self,
        by_relpath: Dict[str, SourceModule],
        relpath: str,
        line: int,
        message: str,
        hint: str = "",
    ) -> Finding:
        """:meth:`finding` for a path that need not be a scanned module
        (a site the graph resolved outside the scan carries no source line)."""
        mod = by_relpath.get(relpath)
        if mod is not None:
            return self.finding(mod, line, message, hint=hint)
        return make_finding(
            self.rule_id, self.severity, relpath, line, message, hint=hint
        )


def rule_catalogue() -> Dict[str, Rule]:
    """rule id -> rule instance, for ``--list-rules`` and the docs test."""
    return {rule.rule_id: rule for rule in ALL_RULES}


def _build_all_rules() -> List[Rule]:
    from repro.analysis.rules.contracts import (
        CodecCoverageRule,
        HandlerCoverageRule,
        LayerSurfaceRule,
        SpecStringRule,
    )
    from repro.analysis.rules.determinism import (
        EnvBranchRule,
        IdComparisonRule,
        UnorderedIterationRule,
        UnseededRandomRule,
        WallClockRule,
    )
    from repro.analysis.rules.flows import (
        DeadMessageRule,
        LayerBypassRule,
        OrphanHandlerRule,
        SendCycleRule,
    )
    from repro.analysis.rules.ordering import (
        ConcurrentConflictRule,
        ExternalGateRule,
        PreStabilityActionRule,
        TotalOrderAssumptionRule,
    )
    from repro.analysis.rules.purity import ImpureImportRule

    return [
        WallClockRule(),
        UnseededRandomRule(),
        UnorderedIterationRule(),
        IdComparisonRule(),
        EnvBranchRule(),
        ImpureImportRule(),
        LayerSurfaceRule(),
        SpecStringRule(),
        HandlerCoverageRule(),
        CodecCoverageRule(),
        DeadMessageRule(),
        OrphanHandlerRule(),
        SendCycleRule(),
        LayerBypassRule(),
        ConcurrentConflictRule(),
        TotalOrderAssumptionRule(),
        ExternalGateRule(),
        PreStabilityActionRule(),
    ]


ALL_RULES: List[Rule] = _build_all_rules()
