"""Command-line entry point: ``python -m repro.analysis`` / ``repro-analysis``.

Exit codes: ``0`` clean (every finding suppressed), ``1`` at least one
finding, ``2`` usage or internal error (an unknown option, a path that
is neither a directory nor a ``.py`` file, or an ``--out`` path that
cannot be written).  See ``docs/ANALYSIS.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import default_root, run_analysis
from repro.analysis.report import render_sarif, render_text
from repro.analysis.rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Determinism and ordering static analysis of src/ "
        "for the CATOCS reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyse instead of src/repro",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: auto-detected)",
    )
    parser.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="report format (default: text; sarif for code scanning)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this path (for CI artifacts)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _is_repo_root(root: Path) -> bool:
    if (root / "src" / "repro").is_dir():
        return True
    print(f"error: {root} does not look like the repo root "
          "(no src/repro)", file=sys.stderr)
    return False


def _emit(report: str, out: Optional[Path]) -> bool:
    """Write the report to ``out`` (if given), then to stdout.  False, with
    a one-line error and nothing on stdout, when ``out`` cannot be written."""
    if out is not None:
        try:
            out.write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {out}: {exc}", file=sys.stderr)
            return False
    sys.stdout.write(report)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``--list-rules | head``).  Point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # raise again, and report it as the I/O error it is, not as
        # "findings".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def _run(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.severity.value:7s}  {rule.title}")
        return 0

    root = (args.root or default_root()).resolve()
    if not args.paths and not _is_repo_root(root):
        return 2

    unreadable = [
        str(p) for p in args.paths
        if not (p.is_dir() or (p.is_file() and p.suffix == ".py"))
    ]
    if unreadable:
        print(f"error: not a directory or .py file: {', '.join(unreadable)}",
              file=sys.stderr)
        return 2

    try:
        result = run_analysis(root=root, paths=args.paths or None)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: analysis failed: {exc}", file=sys.stderr)
        return 2

    renderer = render_sarif if args.format == "sarif" else render_text
    if not _emit(renderer(result.findings, result.suppressed), args.out):
        return 2
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
