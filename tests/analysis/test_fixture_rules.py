"""The violation corpus: each fixture file marks its expected findings with
``# EXPECT[rule-id]`` comments, and the analyser must report exactly those
``(rule, line)`` pairs — no more, no fewer.  This pins both recall (every
planted violation is caught) and precision (the ``fine_*`` functions stay
clean)."""

import re
from pathlib import Path

import pytest

from repro.analysis.engine import run_analysis
from repro.analysis.rules import rule_catalogue

FIXTURES = Path(__file__).resolve().parent / "fixtures"
EXPECT_RE = re.compile(r"#\s*EXPECT\[([A-Z0-9]+)\]")

FIXTURE_FILES = (
    sorted(p.name for p in FIXTURES.glob("det_*.py"))
    + sorted(p.name for p in FIXTURES.glob("flow_*.py"))
    + sorted(p.name for p in FIXTURES.glob("ord_*.py"))
)


def planted(path: Path):
    expected = set()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in EXPECT_RE.finditer(line):
            expected.add((match.group(1), lineno))
    return expected


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_findings_match_markers(name):
    path = FIXTURES / name
    result = run_analysis(paths=[path])
    got = {(f.rule_id, f.line) for f in result.findings}
    assert got == planted(path), (
        f"unexpected: {sorted(got - planted(path))}; "
        f"missed: {sorted(planted(path) - got)}"
    )


def test_suppressed_fixture_is_clean_and_counted():
    result = run_analysis(paths=[FIXTURES / "det_suppressed.py"])
    assert result.findings == []
    assert result.suppressed == 3


def test_fixture_corpus_actually_plants_violations():
    """Guard the guard: every rule that can fire on a fixture has one."""
    rules = set()
    for name in FIXTURE_FILES:
        rules |= {rule for rule, _ in planted(FIXTURES / name)}
    expected = set(rule_catalogue())
    assert expected <= rules, f"rules with no fixture: {sorted(expected - rules)}"


def test_fixture_directory_is_excluded_from_repo_scan(repo_result):
    fixture_paths = {f.path for f in repo_result.findings
                     if "fixtures" in f.path}
    assert fixture_paths == set()
