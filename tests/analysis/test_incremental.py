"""The incremental engine's contract: the cache is invisible except in speed.

Every test here builds a small synthetic repo under ``tmp_path`` so cache
state can be torn through (edited files, tampered versions, corrupt JSON)
without touching the real tree.  The invariants pinned:

- warm runs replay everything and parse **zero** files;
- editing a file invalidates exactly that file;
- a rule-version mismatch invalidates exactly that rule's entries;
- a corrupt/garbage cache silently degrades to a full cold run;
- text/JSON/SARIF output is byte-identical across ``--jobs`` counts and
  cache states (the canonical-order guarantee);
- ``--changed-only`` restricts file-local work only: the cross pass runs
  for any non-empty diff, wherever the edit is.
"""

import json
import subprocess
import sys

import pytest

from repro.analysis.cache import (
    DEFAULT_CACHE_NAME,
    STATS_SCHEMA,
    CacheStats,
    finding_from_cache,
    finding_to_cache,
)
from repro.analysis.engine import run_analysis
from repro.analysis.finding import Finding, Severity, make_finding
from repro.analysis.report import render_json, render_sarif, render_text

CLEAN_TEMPLATE = '''"""Synthetic module {i}."""


def fn{i}(value):
    return value + {i}
'''

#: time.time() outside the allowed modules: a deterministic DET001 finding
#: that has to survive the cache round-trip byte-for-byte.
DIRTY_MODULE = '''"""Synthetic module with a planted wall-clock read."""

import time


def stamp():
    return time.time()
'''


def make_repo(tmp_path, n=3, dirty=False):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "extra"
    pkg.mkdir(parents=True)
    for i in range(n):
        (pkg / f"mod{i}.py").write_text(
            CLEAN_TEMPLATE.format(i=i), encoding="utf-8"
        )
    if dirty:
        (pkg / "dirty.py").write_text(DIRTY_MODULE, encoding="utf-8")
    return root


def run(root, **kwargs):
    stats = CacheStats()
    result = run_analysis(
        root=root, include_docs=False, stats=stats, **kwargs
    )
    return result, stats


def reports(result):
    return (
        render_text(result.findings, [], result.suppressed),
        render_json(result.findings, [], result.suppressed),
        render_sarif(result.findings, [], result.suppressed),
    )


def test_cold_run_then_fully_warm_run(tmp_path):
    root = make_repo(tmp_path)
    cache = root / DEFAULT_CACHE_NAME

    cold, st_cold = run(root, cache_path=cache)
    assert st_cold.files_total == 3
    assert st_cold.files_analyzed == 3 and st_cold.files_replayed == 0
    assert st_cold.parses >= 3
    assert st_cold.project_analyzed and not st_cold.project_replayed
    assert cache.is_file()

    warm, st_warm = run(root, cache_path=cache)
    assert st_warm.files_replayed == 3 and st_warm.files_analyzed == 0
    assert st_warm.rules_analyzed == 0
    assert st_warm.parses == 0  # the headline guarantee: zero re-parses
    assert st_warm.project_replayed and not st_warm.project_analyzed
    assert reports(warm) == reports(cold)


def test_editing_one_file_invalidates_only_that_file(tmp_path):
    root = make_repo(tmp_path)
    cache = root / DEFAULT_CACHE_NAME
    run(root, cache_path=cache)

    target = root / "src" / "repro" / "extra" / "mod1.py"
    target.write_text(
        CLEAN_TEMPLATE.format(i=1) + "\n\nEXTRA = 41 + 1\n", encoding="utf-8"
    )
    _, st = run(root, cache_path=cache)
    assert st.files_analyzed == 1
    assert st.files_replayed == 2

    # And the edit settles: the next run is fully warm again.
    _, st2 = run(root, cache_path=cache)
    assert st2.files_analyzed == 0 and st2.parses == 0


def test_rule_version_mismatch_reruns_only_that_rule(tmp_path):
    root = make_repo(tmp_path)
    cache = root / DEFAULT_CACHE_NAME
    run(root, cache_path=cache)

    payload = json.loads(cache.read_text(encoding="utf-8"))
    stale_entries = 0
    for raw in payload["files"].values():
        if "DET001" in raw["rules"]:
            raw["rules"]["DET001"]["v"] = "stale-fingerprint"
            stale_entries += 1
    assert stale_entries == 3
    cache.write_text(json.dumps(payload), encoding="utf-8")

    _, st = run(root, cache_path=cache)
    # Every file held a stale DET001 entry, so every file re-parses — but
    # only the one rule reruns; the other families replay from cache.
    assert st.files_analyzed == 3
    assert st.rules_analyzed == 3
    assert st.rules_replayed > 0


@pytest.mark.parametrize("garbage", [
    "{not json at all",
    '{"schema": "some-other/schema", "files": {}}',
    '{"schema": "repro.analysis/cache-v1", "files": {"x.py": {"rules": 3}}}',
])
def test_corrupt_cache_degrades_to_full_rerun(tmp_path, garbage):
    root = make_repo(tmp_path)
    cache = root / DEFAULT_CACHE_NAME
    baseline_reports = reports(run(root, cache_path=cache)[0])

    cache.write_text(garbage, encoding="utf-8")
    result, st = run(root, cache_path=cache)
    assert st.files_analyzed == 3  # silent full rerun, no exception
    assert reports(result) == baseline_reports

    # ...and the rerun rewrote a healthy cache.
    _, st_warm = run(root, cache_path=cache)
    assert st_warm.parses == 0


def test_output_byte_identical_across_jobs_and_cache_states(tmp_path):
    root = make_repo(tmp_path, n=4, dirty=True)
    cache = root / "cache.json"

    base, _ = run(root, cache_path=None, jobs=1)
    assert any(f.rule_id == "DET001" for f in base.findings)
    expected = reports(base)

    cold_parallel, st_cold = run(root, cache_path=cache, jobs=4)
    warm, st_warm = run(root, cache_path=cache, jobs=4)
    assert st_cold.jobs > 1  # the pool actually engaged
    assert st_warm.parses == 0
    assert reports(cold_parallel) == expected
    assert reports(warm) == expected


def test_parse_error_is_cached_and_replayed(tmp_path):
    root = make_repo(tmp_path)
    bad = root / "src" / "repro" / "extra" / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    cache = root / DEFAULT_CACHE_NAME

    cold, _ = run(root, cache_path=cache)
    assert any(f.rule_id == "PARSE001" for f in cold.findings)

    warm, st = run(root, cache_path=cache)
    assert st.parses == 0
    assert reports(warm) == reports(cold)


def test_changed_only_restricts_files_and_gates_project_pass(tmp_path):
    root = make_repo(tmp_path)
    _, st = run(
        root,
        cache_path=None,
        changed_relpaths={"src/repro/extra/mod1.py"},
        with_project_pass=False,
    )
    assert st.files_total == 1
    assert st.files_analyzed == 1
    assert not st.project_analyzed and not st.project_replayed


def test_deleted_file_is_pruned_from_cache(tmp_path):
    root = make_repo(tmp_path)
    cache = root / DEFAULT_CACHE_NAME
    run(root, cache_path=cache)
    assert "src/repro/extra/mod2.py" in json.loads(
        cache.read_text(encoding="utf-8"))["files"]

    (root / "src" / "repro" / "extra" / "mod2.py").unlink()
    run(root, cache_path=cache)
    assert "src/repro/extra/mod2.py" not in json.loads(
        cache.read_text(encoding="utf-8"))["files"]


def test_cache_stats_json_schema(tmp_path):
    root = make_repo(tmp_path)
    _, st = run(root, cache_path=root / DEFAULT_CACHE_NAME)
    payload = st.to_json()
    assert payload["schema"] == STATS_SCHEMA
    assert set(payload) == {
        "schema", "enabled", "jobs", "files", "rules", "parses",
        "project", "wall_s",
    }
    assert set(payload["files"]) == {"total", "replayed", "analyzed"}
    assert set(payload["rules"]) == {"replayed", "analyzed"}
    assert set(payload["project"]) == {"replayed", "analyzed"}


def test_finding_survives_cache_roundtrip():
    finding = Finding(
        rule_id="DET001", severity=Severity.ERROR, path="src/x.py",
        line=12, message="m", hint="h", context="ctx", col=7,
        extra=(("kind", "wall-clock"),),
    )
    assert finding_from_cache(finding_to_cache(finding)) == finding


def test_renderers_enforce_canonical_order():
    shuffled = [
        make_finding("ZZZ009", Severity.WARNING, "b.py", 2, "later path"),
        make_finding("BBB002", Severity.WARNING, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 3, "earlier line"),
    ]
    data = json.loads(render_json(shuffled, [], 0))
    emitted = [(f["path"], f["line"], f["rule"]) for f in data["findings"]]
    assert emitted == sorted(emitted)
    text = render_text(shuffled, [], 0).splitlines()
    assert text[0].startswith("a.py:3") and text[1].startswith("a.py:9")


# -- the --changed-only CLI path (real git plumbing) ----------------------------


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.email=ci@example.invalid", "-c", "user.name=ci",
         *args],
        cwd=root, check=True, capture_output=True,
    )


#: PROTO001/003/004 introspect the *live* repro.catocs package (repo_only),
#: so against a synthetic root they report nonsense; everything else in the
#: cross-file pass reads the scanned files.
SYNTHETIC_ROOT_EXCLUDES = "PROTO001,PROTO003,PROTO004"

#: One process reading another's attribute: a RACE001 hidden channel, which
#: only the cross-file pass can see.
HIDDEN_CHANNEL_MODULE = '''"""Synthetic module with a planted hidden channel."""

from repro.sim.process import Process


class Spy(Process):
    def poll(self):
        return self.network.process("other").queue_len
'''


def committed_repo(tmp_path):
    root = make_repo(tmp_path)
    _git(root, "init", "-q")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "seed")
    return root


def test_changed_only_cli_uses_git_diff(tmp_path, capsys):
    from repro.analysis.cli import main

    root = committed_repo(tmp_path)
    stats_path = root / "stats.json"

    def changed_only_stats():
        code = main(["--root", str(root), "--changed-only", "--no-docs",
                     "--exclude-rules", SYNTHETIC_ROOT_EXCLUDES,
                     "--stats-out", str(stats_path)])
        capsys.readouterr()
        assert code == 0
        return json.loads(stats_path.read_text(encoding="utf-8"))

    # Nothing differs from HEAD: nothing to analyse, no cross pass.
    stats = changed_only_stats()
    assert stats["files"]["total"] == 0
    assert stats["project"] == {"replayed": False, "analyzed": False}

    # One edited file: the file-local rules see only it; the cross-file
    # pass runs whichever directory the edit is in.
    target = root / "src" / "repro" / "extra" / "mod0.py"
    target.write_text(
        CLEAN_TEMPLATE.format(i=0) + "\n\nTWEAKED = True\n", encoding="utf-8"
    )
    stats = changed_only_stats()
    assert stats["files"]["total"] == 1
    assert stats["project"] == {"replayed": False, "analyzed": True}

    # Same diff again: the cross pass replays from its whole-project key.
    assert changed_only_stats()["project"] == {
        "replayed": True, "analyzed": False}


def test_changed_only_reports_cross_file_findings_anywhere(tmp_path, capsys):
    """A hidden channel is a cross-file verdict and can be planted in any
    directory: the pre-commit mode must fail on it as the full gate does."""
    from repro.analysis.cli import main

    root = committed_repo(tmp_path)
    spy = root / "src" / "repro" / "extra" / "spy.py"
    spy.write_text(HIDDEN_CHANNEL_MODULE, encoding="utf-8")
    _git(root, "add", str(spy))

    code = main(["--root", str(root), "--changed-only", "--no-docs",
                 "--exclude-rules", SYNTHETIC_ROOT_EXCLUDES])
    assert code == 1
    assert "RACE001" in capsys.readouterr().out
