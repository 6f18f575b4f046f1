"""Finding renderers: human text and machine JSON (``repro.analysis/v1``)."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.finding import Finding

SCHEMA = "repro.analysis/v1"


def canonical_order(findings: List[Finding]) -> List[Finding]:
    """The single sort every renderer goes through: ``Finding.sort_key``,
    i.e. ``(path, line, col, rule, message)``.

    Callers may hand a renderer findings in any order (the CLI passes
    the baseline split, tests pass hand-built lists).  Sorting here
    (idempotently; the engine pre-sorts too) is what keeps text/JSON/SARIF
    bytes, SARIF ``partialFingerprints`` order, and baseline diffs stable
    from run to run.
    """
    return sorted(findings, key=lambda f: f.sort_key)


def render_text(
    fresh: List[Finding],
    grandfathered: List[Finding],
    suppressed: int,
) -> str:
    fresh = canonical_order(fresh)
    lines: List[str] = []
    for finding in fresh:
        lines.append(finding.render())
    counts = _severity_counts(fresh)
    summary = (
        f"{len(fresh)} finding(s) "
        f"({counts['error']} error(s), {counts['warning']} warning(s)), "
        f"{len(grandfathered)} baselined, {suppressed} suppressed"
    )
    if fresh:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(
    fresh: List[Finding],
    grandfathered: List[Finding],
    suppressed: int,
) -> str:
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "findings": [f.to_json() for f in canonical_order(fresh)],
        "baselined": [f.to_json() for f in canonical_order(grandfathered)],
        "summary": {
            **_severity_counts(fresh),
            "total": len(fresh),
            "baselined": len(grandfathered),
            "suppressed": suppressed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_sarif(
    fresh: List[Finding],
    grandfathered: List[Finding],
    suppressed: int,
) -> str:
    """SARIF 2.1.0 — the schema GitHub code scanning ingests.

    Baselined findings are included as suppressed results (kind
    ``external``) so the code-scanning view shows the full picture while
    only fresh findings surface as annotations.
    """
    from repro.analysis.rules import rule_catalogue

    def result(finding: Finding, suppressed_result: bool) -> Dict[str, Any]:
        text = finding.message
        if finding.hint:
            text += f" (hint: {finding.hint})"
        entry: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": finding.severity.value,
            "message": {"text": text},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(finding.line, 1)},
                    }
                }
            ],
            "partialFingerprints": {
                "reproAnalysis/v1": "/".join(finding.fingerprint),
                # Path-independent: (rule, stripped source line) only, so
                # code scanning keeps alert identity across file renames.
                "reproAnalysisContext/v1": "/".join(
                    (finding.rule_id, finding.fingerprint[-1])
                ),
            },
        }
        if suppressed_result:
            entry["suppressions"] = [
                {"kind": "external", "justification": "analysis-baseline.json"}
            ]
        return entry

    payload: Dict[str, Any] = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": rule.title},
                                "defaultConfiguration": {
                                    "level": rule.severity.value
                                },
                            }
                            for rule_id, rule in sorted(
                                rule_catalogue().items()
                            )
                        ],
                    }
                },
                "results": [result(f, False) for f in canonical_order(fresh)]
                + [result(f, True) for f in canonical_order(grandfathered)],
                "properties": {"suppressedInline": suppressed},
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _severity_counts(findings: List[Finding]) -> Dict[str, int]:
    counts = {"error": 0, "warning": 0}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts
