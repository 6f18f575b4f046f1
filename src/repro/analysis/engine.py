"""The analysis engine: discover sources, run rules, filter, order.

The engine owns everything a rule should not care about: file discovery,
suppression comments, deduplication, deterministic output ordering.  A
run is one pass, for the whole repo and for explicit ``paths`` alike:

- :func:`load_project` parses every file once;
- each active rule sees its scoped modules (``check_module``) and then
  the whole project (``check_project``);
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
from repro.analysis.rules import ALL_RULES, Rule
from repro.analysis.source import (
    DocFile,
    SourceModule,
    iter_doc_files,
    iter_python_files,
    load_doc_file,
    load_python_file,
)
from repro.analysis.suppress import is_suppressed

#: Rule id used for files the parser rejects.
PARSE_RULE_ID = "PARSE001"


@dataclass
class Project:
    """Everything the rules see: parsed sources, tests, and docs."""

    root: Path
    src_modules: List[SourceModule] = field(default_factory=list)
    test_modules: List[SourceModule] = field(default_factory=list)
    docs: List[DocFile] = field(default_factory=list)
    parse_findings: List[Finding] = field(default_factory=list)


@dataclass
class AnalysisResult:
    """Findings after suppression, before baseline subtraction."""

    project: Project
    findings: List[Finding]
    suppressed: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]


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
    include_docs: bool = True,
) -> Project:
    """Parse the tree (or just ``paths``, when given) into a Project.

    Explicit ``paths`` — the fixture-directory mode — are loaded in "src"
    scope so every lexical rule applies to them, and doc scanning is
    skipped.
    """
    root = (root or default_root()).resolve()
    src_root = root / "src"
    project = Project(root=root)

    def load_into(files: Iterable[Path], bucket: List[SourceModule]) -> None:
        for path in files:
            mod, error = load_python_file(path, root, src_root)
            if mod is not None:
                bucket.append(mod)
            else:
                relpath = _rel(path, root)
                project.parse_findings.append(_parse_finding(relpath, error))

    if paths:
        load_into(iter_python_files([Path(p) for p in paths]),
                  project.src_modules)
        return project

    load_into(iter_python_files([src_root / "repro"]), project.src_modules)
    tests_root = root / "tests"
    if tests_root.is_dir():
        # ``fixtures`` directories hold deliberately-broken analyser inputs;
        # scanning them would make the violation corpus fail the repo gate.
        files = [
            p for p in iter_python_files([tests_root])
            if "fixtures" not in p.parts
        ]
        load_into(files, project.test_modules)
    if include_docs:
        project.docs = [load_doc_file(p, root) for p in iter_doc_files(root)]
    return project


def run_analysis(
    root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[Rule]] = None,
    include_docs: bool = True,
) -> AnalysisResult:
    """Run ``rules`` (default: all) over the tree rooted at ``root``, or
    over just ``paths`` when given (``repo_only`` rules are skipped then:
    the repo-global state they judge is not in view)."""
    project = load_project(root=root, paths=paths, include_docs=include_docs)
    active = list(rules) if rules is not None else list(ALL_RULES)
    raw: List[Finding] = list(project.parse_findings)

    for rule in active:
        if paths and rule.repo_only:
            continue
        scoped: List[SourceModule] = []
        if "src" in rule.scopes:
            scoped += project.src_modules
        if "tests" in rule.scopes:
            scoped += project.test_modules
        for mod in scoped:
            raw.extend(rule.check_module(mod))
        raw.extend(rule.check_project(project))

    by_relpath = {
        m.relpath: m for m in project.src_modules + project.test_modules
    }
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
