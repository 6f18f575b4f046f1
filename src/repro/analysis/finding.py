"""The unit of analysis output: one finding at one source location."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break reproducibility or a protocol contract
    outright; ``WARNING`` findings are determinism hazards that happen to be
    benign today (e.g. iteration order that is deterministic by CPython's
    insertion-order guarantee but fragile under refactoring).  The CI gate
    fails on *any* non-suppressed finding regardless of severity — severity
    orders the report, it does not soften the gate.
    """

    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        return 0 if self is Severity.ERROR else 1


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to ``path:line``.

    ``context`` is the stripped source line the finding anchors to; the
    SARIF fingerprints key on it rather than the line number, so
    unrelated edits above a finding do not change its identity.
    """

    rule_id: str
    severity: Severity
    path: str  # repo-relative, POSIX separators
    line: int  # 1-based; 0 when the finding is file-scoped
    message: str
    hint: str = ""
    context: str = ""
    col: int = 0  # 1-based column; 0 when the rule reports whole lines

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """SARIF identity: stable across pure line-number drift."""
        return (self.rule_id, self.path, self.context)

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """The one canonical order: ``(path, line, col, rule, message)``.

        Every renderer sorts by exactly this key (``report.py`` enforces
        it), so a report does not move with rule registration or file
        discovery order.
        """
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        text = f"{location}: {self.rule_id} {self.severity.value}: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


def make_finding(
    rule_id: str,
    severity: Severity,
    path: str,
    line: int,
    message: str,
    hint: str = "",
    source_line: Optional[str] = None,
    col: int = 0,
) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=severity,
        path=path,
        line=line,
        message=message,
        hint=hint,
        context=(source_line or "").strip(),
        col=col,
    )
