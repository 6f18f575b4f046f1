"""Finding renderers: human text and SARIF (for code scanning)."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.finding import Finding


def canonical_order(findings: List[Finding]) -> List[Finding]:
    """The single sort every renderer goes through: ``Finding.sort_key``,
    i.e. ``(path, line, col, rule, message)``.

    Callers may hand a renderer findings in any order (tests pass
    hand-built lists).  Sorting here (idempotently; the engine pre-sorts
    too) is what keeps the text and SARIF bytes, and the order of the
    SARIF ``partialFingerprints``, stable from run to run.
    """
    return sorted(findings, key=lambda f: f.sort_key)


def render_text(findings: List[Finding], suppressed: int) -> str:
    findings = canonical_order(findings)
    lines: List[str] = []
    for finding in findings:
        lines.append(finding.render())
    counts = _severity_counts(findings)
    summary = (
        f"{len(findings)} finding(s) "
        f"({counts['error']} error(s), {counts['warning']} warning(s)), "
        f"{suppressed} suppressed"
    )
    if findings:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_sarif(findings: List[Finding], suppressed: int) -> str:
    """SARIF 2.1.0 — the schema GitHub code scanning ingests."""
    from repro.analysis.rules import rule_catalogue

    def result(finding: Finding) -> Dict[str, Any]:
        text = finding.message
        if finding.hint:
            text += f" (hint: {finding.hint})"
        return {
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
                "results": [result(f) for f in canonical_order(findings)],
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
