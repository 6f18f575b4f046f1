"""Baseline round-trip, counted absorption, and schema validation."""

import json

import pytest

from repro.analysis import baseline, cli
from repro.analysis.finding import Severity, make_finding


def _finding(rule="DET001", path="src/repro/x.py", line=10,
             context="t = time.time()", message="wall clock"):
    return make_finding(rule, Severity.ERROR, path, line, message,
                        source_line=context)


def test_round_trip(tmp_path):
    findings = [_finding(), _finding(rule="DET003", line=20,
                                     context="for k in set(keys):")]
    path = tmp_path / "base.json"
    baseline.save(findings, path)
    loaded = baseline.load(path)
    assert loaded == {f.fingerprint: 1 for f in findings}

    fresh, grandfathered = baseline.apply(findings, loaded)
    assert fresh == []
    assert grandfathered == findings


def test_counted_absorption(tmp_path):
    # Two identical fingerprints baselined; a third copy is fresh.
    twin = [_finding(line=10), _finding(line=30)]
    path = tmp_path / "base.json"
    baseline.save(twin, path)
    loaded = baseline.load(path)
    assert loaded[twin[0].fingerprint] == 2

    triplet = twin + [_finding(line=50)]
    fresh, grandfathered = baseline.apply(triplet, loaded)
    assert len(grandfathered) == 2
    assert fresh == [triplet[2]]


def test_line_move_does_not_invalidate():
    known = {_finding(line=10).fingerprint: 1}
    fresh, grandfathered = baseline.apply([_finding(line=99)], known)
    assert fresh == []
    assert len(grandfathered) == 1


def test_context_edit_invalidates():
    known = {_finding().fingerprint: 1}
    moved = _finding(context="t = time.time()  # tweaked")
    fresh, _ = baseline.apply([moved], known)
    assert fresh == [moved]


def test_wrong_schema_rejected(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"schema": "something/else", "findings": []}))
    with pytest.raises(ValueError, match="schema"):
        baseline.load(path)


def test_update_refreshes_and_counts_removals(tmp_path):
    """--update-baseline prunes entries whose rule ran and found nothing."""
    root = tmp_path / "repo"
    (root / "src/repro").mkdir(parents=True)
    (root / "src/repro/x.py").write_text("t = 1\n")
    path = tmp_path / "base.json"
    baseline.save([_finding(), _finding(rule="DET003", line=20,
                                        context="for k in set(keys):")],
                  path)
    # DET003 ran again and found nothing (fixed); DET001 still fires.
    removed = baseline.update(
        [_finding()], path, root=root,
        ran_rules={"DET001", "DET003"},
        known_rules={"DET001", "DET003"},
        scanned_paths={"src/repro/x.py"},
    )
    assert removed == 1
    assert set(baseline.load(path)) == {_finding().fingerprint}


def test_update_prunes_unknown_rules_and_missing_files(tmp_path):
    root = tmp_path / "repo"
    (root / "src/repro").mkdir(parents=True)
    (root / "src/repro/x.py").write_text("t = 1\n")
    path = tmp_path / "base.json"
    baseline.save(
        [
            _finding(rule="GONE999"),  # rule id no longer exists
            _finding(path="src/repro/deleted.py"),  # file no longer exists
        ],
        path,
    )
    removed = baseline.update(
        [], path, root=root,
        ran_rules=set(), known_rules={"DET001"},
        scanned_paths={"src/repro/x.py"},
    )
    assert removed == 2
    assert baseline.load(path) == {}


def test_update_keeps_entries_for_filtered_out_rules(tmp_path):
    """``--rules FLOW001 --update-baseline`` must not wipe DET entries."""
    root = tmp_path / "repo"
    (root / "src/repro").mkdir(parents=True)
    (root / "src/repro/x.py").write_text("t = 1\n")
    path = tmp_path / "base.json"
    kept = _finding()  # DET001 entry, but only FLOW001 runs below
    baseline.save([kept], path)
    removed = baseline.update(
        [], path, root=root,
        ran_rules={"FLOW001"},
        known_rules={"DET001", "FLOW001"},
        scanned_paths={"src/repro/x.py"},
    )
    assert removed == 0
    assert set(baseline.load(path)) == {kept.fingerprint}


def test_update_keeps_entries_for_files_not_in_view(tmp_path):
    """A partial run (``--no-docs``, explicit paths) never read the file,
    so "the rule ran and did not re-report it" proves nothing about it."""
    root = tmp_path / "repo"
    (root / "src/repro").mkdir(parents=True)
    (root / "src/repro/x.py").write_text("t = 1\n")
    (root / "src/repro/y.py").write_text("t = 1\n")
    path = tmp_path / "base.json"
    unseen = _finding(path="src/repro/y.py")
    baseline.save([_finding(), unseen], path)
    removed = baseline.update(
        [], path, root=root,
        ran_rules={"DET001"}, known_rules={"DET001"},
        scanned_paths={"src/repro/x.py"},
    )
    assert removed == 1  # x.py was read and is clean now; y.py was not read
    assert set(baseline.load(path)) == {unseen.fingerprint}


def test_update_creates_file_when_absent(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    path = tmp_path / "fresh.json"
    removed = baseline.update(
        [_finding()], path, root=root,
        ran_rules={"DET001"}, known_rules={"DET001"},
        scanned_paths=set(),
    )
    assert removed == 0
    assert set(baseline.load(path)) == {_finding().fingerprint}


def test_saved_file_is_sorted_and_diffable(tmp_path):
    findings = [
        _finding(path="src/repro/zzz.py"),
        _finding(path="src/repro/aaa.py"),
        _finding(rule="DET005", path="src/repro/aaa.py"),
    ]
    path = tmp_path / "base.json"
    baseline.save(findings, path)
    entries = json.loads(path.read_text())["findings"]
    keys = [(e["rule"], e["path"], e["context"]) for e in entries]
    assert keys == sorted(keys)
    assert path.read_text().endswith("\n")


# -- --update-baseline through the CLI: what a partial run may prune -------------

#: ``count`` is not a registered layer, so the quoted spec is a PROTO002.
BAD_SPEC_DOC = 'Stacks are spelled `"dedup|count|causal"` in code.\n'

WALLCLOCK_MODULE = "import time\n\n\ndef stamp():\n    return time.time()\n"


@pytest.fixture
def doc_repo(tmp_path):
    """A synthetic repo baselined with one docs entry and one src entry."""
    root = tmp_path / "repo"
    (root / "src/repro/extra").mkdir(parents=True)
    (root / "docs").mkdir()
    (root / "docs/GUIDE.md").write_text(BAD_SPEC_DOC)
    (root / "src/repro/extra/clock.py").write_text(WALLCLOCK_MODULE)
    (root / "src/repro/extra/clean.py").write_text("VALUE = 1\n")
    assert _update(root) == 0
    assert _baselined(root) == {
        ("PROTO002", "docs/GUIDE.md"),
        ("DET001", "src/repro/extra/clock.py"),
    }
    return root


def _update(root, *argv):
    # PROTO001/003/004 judge the live repro.catocs package, not ``root``.
    return cli.main(["--root", str(root), "--rules", "PROTO002,DET001",
                     "--update-baseline", *map(str, argv)])


def _baselined(root):
    known = baseline.load(root / "analysis-baseline.json")
    return {(rule, path) for rule, path, _context in known}


def test_no_docs_update_keeps_docs_entries(doc_repo, capsys):
    assert _update(doc_repo, "--no-docs") == 0
    assert "0 stale entries removed" in capsys.readouterr().out
    assert ("PROTO002", "docs/GUIDE.md") in _baselined(doc_repo)


def test_explicit_paths_update_keeps_entries_elsewhere(doc_repo, capsys):
    assert _update(doc_repo, doc_repo / "src/repro/extra/clean.py") == 0
    assert "0 stale entries removed" in capsys.readouterr().out
    assert _baselined(doc_repo) == {
        ("PROTO002", "docs/GUIDE.md"),
        ("DET001", "src/repro/extra/clock.py"),
    }


def test_full_run_update_still_prunes_fixed_findings(doc_repo, capsys):
    (doc_repo / "docs/GUIDE.md").write_text("Nothing quoted here.\n")
    assert _update(doc_repo) == 0
    assert "1 stale entry removed" in capsys.readouterr().out
    assert _baselined(doc_repo) == {("DET001", "src/repro/extra/clock.py")}
