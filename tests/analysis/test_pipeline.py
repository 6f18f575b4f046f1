"""The one pipeline: a whole-repo run and an explicit-paths run are the
same pass over a different file set, checked on a synthetic repo."""

import pytest

from repro.analysis.engine import PARSE_RULE_ID, run_analysis
from repro.analysis.report import render_json
from repro.analysis.rules import ALL_RULES

DIRTY_MODULE = '''"""Two planted wall-clock reads: one reported, one suppressed."""

import time


def stamp():
    return time.time()


def quiet():
    return time.time()  # repro: ignore[DET001]
'''

#: ``count`` is not a registered layer: PROTO002, the rule that reads tests.
TEST_MODULE = '''SPEC = "dedup|count|causal"
QUIET = "dedup|count|fifo"  # repro: ignore[PROTO002]
'''

BROKEN_MODULE = "import time\n\n\ndef broken(:\n    return time.time()\n"

DIRTY = "src/repro/extra/dirty.py"
BROKEN = "src/repro/extra/broken.py"
TEST = "tests/extra/test_specs.py"
FIXTURE = "tests/extra/fixtures/planted.py"

#: PROTO001/003/004 judge the live repro.catocs package, not the scanned root.
RULES = [rule for rule in ALL_RULES if not rule.repo_only]


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "repo"
    for relpath, text in [
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
    full = run_analysis(root=repo, rules=RULES)
    part = run_analysis(root=repo, paths=[repo / DIRTY], rules=RULES)

    assert [(f.rule_id, f.path) for f in full.findings] == [
        (PARSE_RULE_ID, BROKEN), ("DET001", DIRTY), ("PROTO002", TEST),
    ]
    assert full.suppressed == 2  # one in src, one in tests

    # The shared file: same findings, same suppression, either way in.
    assert part.findings == [f for f in full.findings if f.path == DIRTY]
    assert part.suppressed == 1

    # Parsed once into the right buckets; fixtures and the broken file are
    # in neither.
    assert [m.relpath for m in full.project.src_modules] == [DIRTY]
    assert [m.relpath for m in full.project.test_modules] == [TEST]
    assert [m.relpath for m in part.project.src_modules] == [DIRTY]

    again = run_analysis(root=repo, rules=RULES)
    assert (render_json(again.findings, [], again.suppressed)
            == render_json(full.findings, [], full.suppressed))
