"""The one pipeline: a whole-repo run and an explicit-paths run are the
same pass over a different file set, checked on a synthetic repo.  A
whole-repo run reads ``src/`` and nothing else, and a wall-clock read in
a protocol package is a DET001 error."""

import pytest

from repro.analysis.engine import PARSE_RULE_ID, run_analysis
from repro.analysis.finding import Severity
from repro.analysis.report import render_sarif

DIRTY_MODULE = '''"""Two planted wall-clock reads: one reported, one suppressed."""

import time


def stamp():
    return time.time()


def quiet():
    return time.time()  # repro: ignore[DET001]
'''

#: A wall-clock read outside ``src/``: the repo run must not report it.
TEST_MODULE = '''import time


def test_stamp():
    assert time.time() > 0
'''

BROKEN_MODULE = "import time\n\n\ndef broken(:\n    return time.time()\n"

#: A tracer-style timing read inside the ordering stack.
CATOCS_MODULE = '''import time


def hold_time(started):
    return time.perf_counter() - started
'''

CATOCS = "src/repro/catocs/timed.py"
DIRTY = "src/repro/extra/dirty.py"
BROKEN = "src/repro/extra/broken.py"
TEST = "tests/extra/test_specs.py"
FIXTURE = "tests/extra/fixtures/planted.py"


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "repo"
    for relpath, text in [
        (CATOCS, CATOCS_MODULE),
        (DIRTY, DIRTY_MODULE),
        (BROKEN, BROKEN_MODULE),
        (TEST, TEST_MODULE),
        (FIXTURE, DIRTY_MODULE + TEST_MODULE),
    ]:
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_repo_run_and_paths_run_are_one_pipeline(repo):
    full = run_analysis(root=repo)
    part = run_analysis(root=repo, paths=[repo / DIRTY])

    assert [(f.rule_id, f.path) for f in full.findings] == [
        ("DET001", CATOCS), (PARSE_RULE_ID, BROKEN), ("DET001", DIRTY),
    ]
    assert full.suppressed == 1

    # The protocol-package read resolves under repro.catocs and is an error.
    timed = full.findings[0]
    assert timed.severity is Severity.ERROR and timed.line == 5
    assert full.project.src_modules[0].module == "repro.catocs.timed"

    # The shared file: same findings, same suppression, either way in.
    assert part.findings == [f for f in full.findings if f.path == DIRTY]
    assert part.suppressed == 1

    # Parsed once; tests/, its fixtures and the broken file are not
    # modules of the run.
    assert [m.relpath for m in full.project.src_modules] == [CATOCS, DIRTY]
    assert [m.relpath for m in part.project.src_modules] == [DIRTY]

    # The planted test file is clean only because it is out of scope.
    planted = run_analysis(root=repo, paths=[repo / TEST])
    assert [f.rule_id for f in planted.findings] == ["DET001"]

    again = run_analysis(root=repo)
    assert (render_sarif(again.findings, again.suppressed)
            == render_sarif(full.findings, full.suppressed))
