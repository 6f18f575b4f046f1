"""The analysis engine: discover sources, run rules, filter, order.

The engine owns everything a rule should not care about: file discovery,
suppression comments, deduplication, deterministic output ordering.  A
run is one pass, for the whole repo and for explicit ``paths`` alike:

- :func:`load_project` parses every file under ``src/repro`` (or the
  given paths) once; nothing else in the repo is read;
- each rule sees every module (``check_module``) and then the whole
  project (``check_project``);
- findings are deduplicated, checked against the suppression comments of
  the file they name, and sorted by the canonical
  ``(path, line, col, rule, message)`` key.

Nothing is carried from one run to the next and nothing runs in worker
processes: a full run of the repo is ~2.8 s, and most of it is cross-file
rules that any edit anywhere re-runs (timings in ``docs/ANALYSIS.md``,
"How a run works").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.finding import Finding, Severity, make_finding
from repro.analysis.rules import ALL_RULES
from repro.analysis.source import (
    SourceModule,
    iter_python_files,
    load_python_file,
)
from repro.analysis.suppress import is_suppressed

#: Rule id used for files the parser rejects.
PARSE_RULE_ID = "PARSE001"


@dataclass
class Project:
    """Everything the rules see: the parsed Python sources."""

    root: Path
    src_modules: List[SourceModule] = field(default_factory=list)
    parse_findings: List[Finding] = field(default_factory=list)


@dataclass
class AnalysisResult:
    """Findings after suppression."""

    project: Project
    findings: List[Finding]
    suppressed: int = 0


def default_root() -> Path:
    """The repository root: cwd when it holds ``src/repro``, else derived
    from this package's location (``src/repro/analysis`` -> repo root)."""
    cwd = Path.cwd()
    if (cwd / "src" / "repro").is_dir():
        return cwd
    return Path(__file__).resolve().parents[3]


def load_project(
    root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
) -> Project:
    """Parse ``src/repro`` under ``root`` (or just ``paths``, when given)
    into a Project."""
    root = (root or default_root()).resolve()
    src_root = root / "src"
    project = Project(root=root)
    roots = [Path(p) for p in paths] if paths else [src_root / "repro"]
    for path in iter_python_files(roots):
        mod, error = load_python_file(path, root, src_root)
        if mod is not None:
            project.src_modules.append(mod)
        else:
            project.parse_findings.append(
                _parse_finding(_rel(path, root), error)
            )
    return project


def run_analysis(
    root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
) -> AnalysisResult:
    """Run every rule over ``src/repro`` under ``root``, or over just
    ``paths`` when given."""
    project = load_project(root=root, paths=paths)
    raw: List[Finding] = list(project.parse_findings)

    for rule in ALL_RULES:
        for mod in project.src_modules:
            raw.extend(rule.check_module(mod))
        raw.extend(rule.check_project(project))

    by_relpath = {m.relpath: m for m in project.src_modules}
    kept, suppressed = _dedup_and_suppress(raw, by_relpath)
    kept.sort(key=lambda f: f.sort_key)
    return AnalysisResult(project=project, findings=kept, suppressed=suppressed)


def _dedup_and_suppress(
    raw: Iterable[Finding], by_relpath: Dict[str, SourceModule]
) -> Tuple[List[Finding], int]:
    """Drop repeats of one ``(rule, path, line, message)`` and findings an
    ignore comment in their own file covers; return (kept, suppressed)."""
    kept: List[Finding] = []
    suppressed = 0
    seen = set()
    for finding in raw:
        key = (finding.rule_id, finding.path, finding.line, finding.message)
        if key in seen:
            continue
        seen.add(key)
        mod = by_relpath.get(finding.path)
        if mod is not None and is_suppressed(
            mod.suppressions,
            finding.rule_id,
            finding.line,
            mod.stmt_start(finding.line),
        ):
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


def _parse_finding(relpath: str, error: Optional[str]) -> Finding:
    return make_finding(
        PARSE_RULE_ID, Severity.ERROR, relpath, 0,
        f"file does not parse: {error}",
        hint="fix the syntax error; nothing else in this "
        "file was analysed",
    )


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()
