"""One whole-repo analysis per test session, shared by the read-only tests."""

from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisResult, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_result() -> AnalysisResult:
    """``run_analysis`` over HEAD, docs included.  Treat it and its
    ``.project`` as read-only; a test that mutates a project loads its own."""
    return run_analysis(root=REPO_ROOT)
