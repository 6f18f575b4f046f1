"""The repo gate: HEAD must have no unsuppressed finding.

This is the in-process twin of the CI job — if this test fails, so will
the ``analysis`` CI step, and vice versa.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.analysis.engine import PARSE_RULE_ID
from repro.analysis.rules import ALL_RULES, rule_catalogue
from repro.analysis.source import iter_python_files
from repro.analysis.suppress import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_head_has_no_fresh_findings(repo_result):
    findings = repo_result.findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_suppressions_name_live_rule_ids(repo_result):
    """A suppression naming an id outside the catalogue (a typo, a deleted
    rule) is silently inert, and so is one under ``src/`` whose rule has
    stopped firing on its line: each must suppress a raw finding at HEAD.
    Only real comments count: docstrings and test data quote the grammar
    with made-up ids."""
    known = set(rule_catalogue())
    project = repo_result.project
    modules = {m.relpath: m for m in project.src_modules}
    raw = [f for rule in ALL_RULES for mod in project.src_modules
           for f in rule.check_module(mod)]
    raw += [f for rule in ALL_RULES for f in rule.check_project(project)]
    dead = []
    for path in iter_python_files(
        [REPO_ROOT / d for d in ("src", "tests", "benchmarks", "examples")]
    ):
        text = path.read_text(encoding="utf-8")
        if "repro:" not in text:
            continue
        relpath = path.relative_to(REPO_ROOT).as_posix()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            for ids in parse_suppressions(tok.string).values():
                dead += [f"{relpath}:{line}: {rule_id}"
                         for rule_id in sorted((ids or frozenset()) - known)]
                if relpath.startswith("src/") and not any(
                    f.path == relpath
                    and (ids is None or f.rule_id in ids)
                    and line in (f.line, modules[relpath].stmt_start(f.line))
                    for f in raw
                ):
                    dead.append(f"{relpath}:{line}: suppresses nothing")
    assert dead == []


def test_docs_rule_table_matches_the_catalogue():
    """docs/ANALYSIS.md's rule table has one row per registered rule, plus
    the engine's own parse-failure id, and no row for anything else."""
    text = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| ([A-Z]+[0-9]{3}) \|", text, flags=re.M)
    assert sorted(documented) == sorted([*rule_catalogue(), PARSE_RULE_ID])


def test_analysis_does_not_import_experiments():
    """Layering: the analyser reads the experiments' source, never runs it."""
    for path in iter_python_files([REPO_ROOT / "src" / "repro" / "analysis"]):
        assert "repro.experiments" not in path.read_text(encoding="utf-8"), path


def test_only_the_analyser_imports_the_analyser():
    """Layering: the program (the delivery oracle included) reads what a
    stack promises off its layers, so nothing outside ``repro/analysis/``
    imports ``repro.analysis``."""
    package = REPO_ROOT / "src" / "repro"
    imports = []
    for path in iter_python_files([package]):
        if path.is_relative_to(package / "analysis"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                        for name in names
                        if name == "repro.analysis" or name.startswith("repro.analysis.")]
    assert imports == []


def test_nothing_reads_through_a_member_transport():
    """Callers talk to ``member.stack`` and its named layers.  What is left
    of ``member.transport`` is six counters for the benchmark, so nothing in
    the program, its tests, benchmarks or examples reads anything off it.
    An attribute chain rooted at the ``repro`` package is a module path,
    not a member."""
    reads = []
    for path in iter_python_files(
        [REPO_ROOT / d for d in ("src", "tests", "benchmarks", "examples")]
    ):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "transport"
                and not ast.unparse(node).startswith("repro.")
            ):
                reads.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []
