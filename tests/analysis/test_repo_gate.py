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
from repro.analysis.rules import rule_catalogue
from repro.analysis.source import iter_python_files
from repro.analysis.suppress import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_head_has_no_fresh_findings(repo_result):
    findings = repo_result.findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_suppressions_name_live_rule_ids():
    """A suppression naming an id outside the catalogue (a typo, a deleted
    rule) is silently inert.  Only real comments count: docstrings and
    test data quote the grammar with made-up ids."""
    known = set(rule_catalogue())
    dead = []
    for path in iter_python_files(
        [REPO_ROOT / d for d in ("src", "tests", "benchmarks", "examples")]
    ):
        text = path.read_text(encoding="utf-8")
        if "repro:" not in text:
            continue
        dead += [
            f"{path.relative_to(REPO_ROOT)}:{tok.start[0]}: {rule_id}"
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT
            for ids in parse_suppressions(tok.string).values()
            for rule_id in sorted((ids or frozenset()) - known)
        ]
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
