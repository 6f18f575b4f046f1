"""The repo gate: HEAD must be clean under the committed baseline.

This is the in-process twin of the CI job — if this test fails, so will
the ``analysis`` CI step, and vice versa.
"""

import io
import re
import tokenize
from pathlib import Path

from repro.analysis import baseline
from repro.analysis.engine import PARSE_RULE_ID
from repro.analysis.finding import Severity
from repro.analysis.rules import rule_catalogue
from repro.analysis.source import iter_python_files
from repro.analysis.suppress import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_head_has_no_fresh_findings(repo_result):
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    fresh, _ = baseline.apply(repo_result.findings, known)
    assert fresh == [], "\n".join(f.render() for f in fresh)


def test_committed_baseline_is_tight(repo_result):
    """Every baseline entry must still match a live finding — dead entries
    mean the underlying code was fixed and the baseline should shrink."""
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    live = {f.fingerprint for f in repo_result.findings}
    stale = [fp for fp in known if fp not in live]
    assert stale == [], f"stale baseline entries: {stale}"


def test_no_determinism_findings_grandfathered(repo_result):
    """The baseline may tolerate doc-side contract nits, never findings
    from the determinism or purity families — those must be fixed or
    explicitly suppressed at the site with a justification comment."""
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    _, grandfathered = baseline.apply(repo_result.findings, known)
    hard = [
        f for f in grandfathered
        if f.severity is Severity.ERROR
        and f.rule_id.startswith(("DET", "PUR"))
    ]
    assert hard == [], "\n".join(f.render() for f in hard)


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
