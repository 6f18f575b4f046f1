"""Source discovery and parsing: files in, parsed modules out.

The walker is deliberately boring: deterministic file order (sorted
POSIX-relative paths) and one :class:`SourceModule` per parsable Python
file.  Unparsable files surface as ``PARSE`` findings rather than
exceptions, so one syntax error does not hide every other finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.suppress import SuppressionMap, parse_suppressions


@dataclass
class SourceModule:
    """One parsed Python file plus the lexical context rules need."""

    path: Path  # absolute
    relpath: str  # repo-relative, POSIX separators
    module: str  # dotted module name; "" when not under a package root
    text: str
    tree: ast.Module
    suppressions: SuppressionMap
    lines: List[str] = field(default_factory=list)
    _stmt_starts: Optional[Dict[int, int]] = None

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def stmt_start(self, lineno: int) -> int:
        """First line of the innermost statement covering ``lineno``.

        Lets a suppression on a ``for`` header cover findings against a
        multi-line iterable expression.
        """
        if self._stmt_starts is None:
            table: Dict[int, Tuple[int, int]] = {}  # line -> (span, start)
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                end = getattr(node, "end_lineno", None) or node.lineno
                span = end - node.lineno
                for covered in range(node.lineno, end + 1):
                    best = table.get(covered)
                    if best is None or span < best[0]:
                        table[covered] = (span, node.lineno)
            self._stmt_starts = {line: start for line, (_, start) in table.items()}
        return self._stmt_starts.get(lineno, lineno)


def module_name_for(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` under ``src_root`` ("" if outside)."""
    try:
        rel = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return ""
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def load_python_file(
    path: Path, repo_root: Path, src_root: Path
) -> Tuple[Optional[SourceModule], Optional[str]]:
    """Parse one file; returns ``(module, None)`` or ``(None, error)``."""
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return None, f"{exc.msg} (line {exc.lineno})"
    relpath = _relpath(path, repo_root)
    return (
        SourceModule(
            path=path,
            relpath=relpath,
            module=module_name_for(path, src_root),
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            lines=text.splitlines(),
        ),
        None,
    )


def iter_python_files(roots: Iterable[Path]) -> List[Path]:
    """Every ``*.py`` under ``roots`` (files accepted verbatim), sorted."""
    found: Dict[Path, None] = {}
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            found[root.resolve()] = None
        elif root.is_dir():
            for path in root.rglob("*.py"):
                if "__pycache__" in path.parts:
                    continue
                found[path.resolve()] = None
    return sorted(found)


def _relpath(path: Path, repo_root: Path) -> str:
    try:
        return path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
