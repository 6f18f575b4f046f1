"""Shared experiment plumbing: result tables, formatting, trend fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


class Table:
    """A printable results table (the unit every experiment emits)."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000 or abs(value) < 0.01:
                    return f"{value:.3g}"
                return f"{value:.2f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """What each ``run_eXX`` returns."""

    experiment_id: str
    title: str
    tables: List[Table]
    #: named shape assertions — the reproduction criteria
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
        if self.notes:
            parts.append(self.notes)
        for name, ok in self.checks.items():
            parts.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        return "\n\n".join(parts)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of y = c * x^k in log-log space; returns (k, c).

    Used for the Section 5 growth-exponent estimates.  Points with
    non-positive coordinates are skipped.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return (float("nan"), float("nan"))
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    n = len(pts)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((v - mean_x) ** 2 for v in lx)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    if sxx == 0:
        return (float("nan"), float("nan"))
    k = sxy / sxx
    c = math.exp(mean_y - k * mean_x)
    return (k, c)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
