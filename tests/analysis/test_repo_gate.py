"""The repo gate: HEAD must be clean under the committed baseline.

This is the in-process twin of the CI job — if this test fails, so will
the ``analysis`` CI step, and vice versa.
"""

from pathlib import Path

from repro.analysis import baseline
from repro.analysis.engine import run_analysis
from repro.analysis.finding import Severity

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_head_has_no_fresh_findings():
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    fresh, _ = baseline.apply(result.findings, known)
    assert fresh == [], "\n".join(f.render() for f in fresh)


def test_committed_baseline_is_tight():
    """Every baseline entry must still match a live finding — dead entries
    mean the underlying code was fixed and the baseline should shrink."""
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    live = {f.fingerprint for f in result.findings}
    stale = [fp for fp in known if fp not in live]
    assert stale == [], f"stale baseline entries: {stale}"


def test_no_determinism_findings_grandfathered():
    """The baseline may tolerate doc-side contract nits, never findings
    from the determinism or purity families — those must be fixed or
    explicitly suppressed at the site with a justification comment."""
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    _, grandfathered = baseline.apply(result.findings, known)
    hard = [
        f for f in grandfathered
        if f.severity is Severity.ERROR
        and f.rule_id.startswith(("DET", "PUR"))
    ]
    assert hard == [], "\n".join(f.render() for f in hard)


def test_hot_function_manifest_names_real_functions():
    """A manifest entry that no longer resolves (function renamed or moved)
    silently takes that frame out of PERF002-004; every name must match."""
    from repro.analysis.rules.perf import HOT_FUNCTIONS, iter_functions
    from repro.analysis.source import load_python_file

    src = REPO_ROOT / "src"
    missing = []
    for module, names in sorted(HOT_FUNCTIONS.items()):
        path = src / (module.replace(".", "/") + ".py")
        mod, error = load_python_file(path, REPO_ROOT, src)
        assert error is None, error
        defined = {qual for qual, _ in iter_functions(mod.tree)}
        missing += [f"{module}:{name}" for name in sorted(names - defined)]
    assert missing == []
