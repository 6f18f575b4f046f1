"""Command-line entry point: ``python -m repro.analysis`` / ``repro-analysis``.

Exit codes: ``0`` clean (every finding suppressed or baselined), ``1``
at least one fresh finding, ``2`` usage or internal error.  See
``docs/ANALYSIS.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import baseline as baseline_mod
from repro.analysis.engine import default_root, run_analysis
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.rules import ALL_RULES, rule_catalogue

DEFAULT_BASELINE = "analysis-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Determinism & protocol-contract static analysis "
        "for the CATOCS reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyse instead of the whole repo "
        "(explicit paths get full lexical-rule coverage; docs are skipped)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: auto-detected)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text; sarif for code scanning)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--exclude-rules", default=None, metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE} if present; "
        "pass an explicit path to require it)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's findings and exit 0",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this path (for CI artifacts)",
    )
    parser.add_argument(
        "--no-docs", action="store_true",
        help="skip scanning Markdown docs for spec strings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


#: export subcommand -> (description, formats, ``--out`` help).
EXPORTS = {
    "graph": (
        "Emit the interprocedural message-flow graph "
        "(send sites vs typed-dispatch handler surface).",
        ("json", "dot"),
        "also write the graph to this path",
    ),
    "effects": (
        "Emit the handler effect tables and delivery-guarantee "
        "model the ORD rules join (reads/writes per handler, commutativity "
        "classification, resolved spec lattice).",
        ("json",),
        "also write the export to this path",
    ),
}


def build_export_parser(command: str) -> argparse.ArgumentParser:
    description, formats, out_help = EXPORTS[command]
    parser = argparse.ArgumentParser(
        prog=f"repro-analysis {command}", description=description
    )
    parser.add_argument(
        "--format", choices=formats, default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: auto-detected)",
    )
    parser.add_argument("--out", type=Path, default=None, help=out_help)
    return parser


def export_main(command: str, argv: List[str]) -> int:
    """``graph`` and ``effects``: build the project's flow graph or effect
    table and print it (and write it to ``--out``)."""
    import json

    from repro.analysis.effects import effects_export
    from repro.analysis.engine import load_project
    from repro.analysis.flowgraph import flow_graph_for

    args = build_export_parser(command).parse_args(argv)
    root = (args.root or default_root()).resolve()
    if not _is_repo_root(root):
        return 2
    project = load_project(root=root, include_docs=False)
    if args.format == "dot":
        report = flow_graph_for(project).to_dot()
    else:
        payload = (
            flow_graph_for(project).to_json()
            if command == "graph"
            else effects_export(project)
        )
        report = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(report, args.out)
    return 0


def _is_repo_root(root: Path) -> bool:
    if (root / "src" / "repro").is_dir():
        return True
    print(f"error: {root} does not look like the repo root "
          "(no src/repro)", file=sys.stderr)
    return False


def _emit(report: str, out: Optional[Path]) -> None:
    sys.stdout.write(report)
    if out is not None:
        out.write_text(report, encoding="utf-8")


def _select_rules(
    include: Optional[str], exclude: Optional[str]
) -> "tuple[Optional[List], Optional[str]]":
    """Resolve --rules/--exclude-rules to a rule list (None = all)."""
    if include is None and exclude is None:
        return None, None
    catalogue = rule_catalogue()
    wanted = list(catalogue)
    if include is not None:
        wanted = [r.strip() for r in include.split(",") if r.strip()]
    dropped = set()
    if exclude is not None:
        dropped = {r.strip() for r in exclude.split(",") if r.strip()}
    unknown = [r for r in list(wanted) + sorted(dropped) if r not in catalogue]
    if unknown:
        return None, f"unknown rule id(s): {', '.join(sorted(set(unknown)))}"
    return [catalogue[r] for r in wanted if r not in dropped], None


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``--list-rules | head``).  Point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # raise again, and report it as the I/O error it is, not as
        # "fresh findings".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def _run(argv: Optional[List[str]]) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] in EXPORTS:
        return export_main(raw[0], raw[1:])
    args = build_parser().parse_args(raw)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.severity.value:7s}  {rule.title}")
        return 0

    root = (args.root or default_root()).resolve()
    if not args.paths and not _is_repo_root(root):
        return 2

    rules, rule_error = _select_rules(args.rules, args.exclude_rules)
    if rule_error is not None:
        print(f"error: {rule_error}", file=sys.stderr)
        return 2

    try:
        result = run_analysis(
            root=root,
            paths=args.paths or None,
            rules=rules,
            include_docs=not args.no_docs,
        )
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: analysis failed: {exc}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None:
        candidate = root / DEFAULT_BASELINE
        if candidate.is_file():
            baseline_path = candidate

    if args.update_baseline:
        target = args.baseline or (root / DEFAULT_BASELINE)
        ran = {r.rule_id for r in (rules if rules is not None else ALL_RULES)}
        project = result.project
        scanned = {
            f.relpath for f in
            project.src_modules + project.test_modules + project.docs
        }
        removed = baseline_mod.update(
            result.findings, target, root=root,
            ran_rules=ran, known_rules=set(rule_catalogue()),
            scanned_paths=scanned,
        )
        print(f"baseline written: {target} "
              f"({len(result.findings)} finding(s), "
              f"{removed} stale entr{'y' if removed == 1 else 'ies'} removed)")
        return 0

    grandfathered = []
    fresh = result.findings
    if baseline_path is not None:
        try:
            known = baseline_mod.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
        fresh, grandfathered = baseline_mod.apply(result.findings, known)

    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    _emit(renderer(fresh, grandfathered, result.suppressed), args.out)
    return 1 if fresh else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
