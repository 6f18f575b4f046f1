"""End-to-end CLI contract: exit codes, report schemas, rule selection.

These run the analyser exactly as CI does — ``python -m repro.analysis`` in
a subprocess — so the exit-code contract (0 clean / 1 fresh findings /
2 usage error) is pinned where it matters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.finding import Severity, make_finding
from repro.analysis.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_repo_is_clean_at_head():
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 finding(s) (0 error(s), 0 warning(s)), ")


def test_violation_fixture_fails_the_gate():
    proc = run_cli(FIXTURES / "det_wallclock.py")
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_json_format_schema():
    proc = run_cli(FIXTURES / "det_wallclock.py", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "repro.analysis/v2"
    assert set(payload) == {"schema", "findings", "summary"}
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    first = payload["findings"][0]
    for key in ("rule", "severity", "path", "line", "message", "hint"):
        assert key in first


def test_out_writes_artifact(tmp_path):
    artifact = tmp_path / "report.json"
    proc = run_cli(FIXTURES / "det_wallclock.py", "--format", "json",
                   "--out", artifact)
    assert proc.returncode == 1
    assert json.loads(artifact.read_text()) == json.loads(proc.stdout)


def test_bad_root_is_usage_error(tmp_path):
    proc = run_cli("--root", tmp_path)
    assert proc.returncode == 2
    assert "repo root" in proc.stderr


@pytest.mark.parametrize("flag", [
    ["--jobs", "2"], ["--cache", "x"], ["--no-cache"], ["--changed-only"],
    ["--stats-out", "x"], ["--baseline", "x"], ["--update-baseline"],
    ["--no-docs"],
])
def test_cache_and_worker_flags_are_gone(flag):
    """The one-pass engine over src/ has nothing for these to select:
    argparse must reject them, not accept and ignore them."""
    proc = run_cli(FIXTURES / "det_wallclock.py", *flag)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_list_rules_covers_all_families():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == [
        "DET001", "DET002", "DET003", "DET004", "DET005", "PUR001",
        "FLOW003", "FLOW004", "ORD001", "ORD002", "ORD003", "ORD004",
    ]


def test_rules_filter_selects_only_named_rules():
    proc = run_cli(FIXTURES / "det_wallclock.py", "--rules", "FLOW003,FLOW004")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DET001" not in proc.stdout


def test_exclude_rules_drops_named_rules():
    proc = run_cli(FIXTURES / "det_wallclock.py", "--exclude-rules", "DET001")
    assert "DET001" not in proc.stdout


@pytest.mark.parametrize(
    "rule_id", ["BOGUS999", "RACE001", "PROTO002", "FLOW001"]
)
def test_unknown_rule_id_is_usage_error(rule_id):
    proc = run_cli("--rules", rule_id)
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_an_error_not_a_traceback(unbuffered):
    """``--list-rules | head -3``: the reader is gone before the writes.
    Buffered stdout fails at the final flush, unbuffered at the first
    print; both must exit 2 quietly, never 1 ("fresh findings")."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_sarif_format_schema():
    proc = run_cli(FIXTURES / "det_wallclock.py", "--format", "sarif")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "DET001" in rule_ids and "ORD003" in rule_ids
    assert any(res["ruleId"] == "DET001" for res in run["results"])
    first = next(res for res in run["results"] if res["ruleId"] == "DET001")
    assert "partialFingerprints" in first
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("det_wallclock.py")


def test_exclude_unknown_rule_id_is_usage_error():
    proc = run_cli("--exclude-rules", "DET001,NOPE42")
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


def _sarif_fingerprints(proc):
    payload = json.loads(proc.stdout)
    results = payload["runs"][0]["results"]
    keyed = {r["partialFingerprints"]["reproAnalysis/v1"] for r in results}
    context = {r["partialFingerprints"]["reproAnalysisContext/v1"]
               for r in results}
    return keyed, context


def test_sarif_context_fingerprint_survives_rename(tmp_path):
    """Code scanning keys alert identity on partialFingerprints; the
    context component must not change when a file is merely renamed."""
    source = (FIXTURES / "det_wallclock.py").read_text()
    before = tmp_path / "clock_module.py"
    after = tmp_path / "clock_module_renamed.py"
    before.write_text(source)
    after.write_text(source)

    keyed_a, context_a = _sarif_fingerprints(
        run_cli(before, "--format", "sarif"))
    keyed_b, context_b = _sarif_fingerprints(
        run_cli(after, "--format", "sarif"))
    assert context_a and context_a == context_b
    # The full fingerprint still embeds the path.
    assert keyed_a != keyed_b


def test_graph_json_subcommand():
    proc = run_cli("graph", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "repro.analysis/flowgraph-v1"
    names = {entry["name"] for entry in payload["messages"]}
    assert "DataMessage" in names
    assert not any(entry["dead"] for entry in payload["messages"])
    assert not any(entry["orphan"] for entry in payload["messages"])


def test_effects_json_subcommand():
    proc = run_cli("effects", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "repro.analysis/effects-v1"
    assert payload["handlers"], "no handler effect rows in repo scan"
    guarantees = payload["guarantees"]
    assert guarantees["causal"]["order"] == "causal"
    assert guarantees["total-seq"]["order"] == "total"
    assert guarantees["raw"]["order"] == "none"
    # The Figure 5 app's planted conflict must appear in the export.
    assert any(c["process"].endswith("CellReplica")
               for c in payload["conflicts"])


def test_effects_out_writes_artifact(tmp_path):
    artifact = tmp_path / "effects.json"
    proc = run_cli("effects", "--format", "json", "--out", artifact)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(artifact.read_text())["schema"] == \
        "repro.analysis/effects-v1"


def test_graph_dot_subcommand_writes_artifact(tmp_path):
    artifact = tmp_path / "flow.dot"
    proc = run_cli("graph", "--format", "dot", "--out", artifact)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    dot = artifact.read_text()
    assert dot.startswith("digraph message_flow {")
    assert '"DataMessage"' in dot


def test_renderers_enforce_canonical_order():
    shuffled = [
        make_finding("ZZZ009", Severity.WARNING, "b.py", 2, "later path"),
        make_finding("BBB002", Severity.WARNING, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 3, "earlier line"),
    ]
    data = json.loads(render_json(shuffled, 0))
    emitted = [(f["path"], f["line"], f["rule"]) for f in data["findings"]]
    assert emitted == sorted(emitted)
    text = render_text(shuffled, 0).splitlines()
    assert text[0].startswith("a.py:3") and text[1].startswith("a.py:9")


def test_output_is_hash_seed_stable():
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             str(FIXTURES / "det_unordered.py"), "--format", "json"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
