"""End-to-end CLI contract: exit codes and report formats.

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
from repro.analysis.report import render_sarif, render_text
from repro.analysis.rules import rule_catalogue

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


def test_out_writes_artifact(tmp_path):
    artifact = tmp_path / "report.sarif"
    proc = run_cli(FIXTURES / "det_wallclock.py", "--format", "sarif",
                   "--out", artifact)
    assert proc.returncode == 1
    assert json.loads(artifact.read_text()) == json.loads(proc.stdout)


def test_unwritable_out_is_a_one_line_error(tmp_path):
    """An ``--out`` that cannot be written exits 2, not 1 ("findings"),
    and says so in one line instead of a traceback."""
    proc = run_cli(FIXTURES / "det_wallclock.py",
                   "--out", tmp_path / "missing" / "report.txt")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write report to ")


@pytest.mark.parametrize(
    "path", ["src/repro/tnx", "README.md", "graph", "effects"],
    ids=["missing", "not-python", "graph-subcommand", "effects-subcommand"],
)
def test_unreadable_path_is_usage_error(path):
    """A path the analyser cannot read must fail the gate, not pass it
    with nothing checked; ``graph`` and ``effects`` are no longer
    subcommands, so they are among them."""
    proc = run_cli(path)
    assert proc.returncode == 2
    assert f"not a directory or .py file: {path}" in proc.stderr
    assert proc.stdout == ""


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
        "DET001", "DET002", "DET003", "ORD001", "ORD002", "ORD003",
    ]


@pytest.mark.parametrize(
    "rule_id",
    ["BOGUS999", "RACE001", "PROTO002", "FLOW001", "PUR001", "FLOW003",
     "FLOW004", "DET004", "DET005", "ORD004"],
)
def test_unknown_rule_id_is_usage_error(rule_id):
    """A deleted rule's id names nothing in the catalogue, and no option
    takes a rule id: every rule runs on every pass, so a command line
    that still names one fails instead of analysing less."""
    assert rule_id not in rule_catalogue()
    proc = run_cli("--rules", rule_id)
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, refusal", [
    (["--rules", "DET001"], "unrecognized arguments: --rules"),
    (["--exclude-rules", "DET001"], "unrecognized arguments: --exclude-rules"),
    (["--format", "json"], "invalid choice: 'json'"),
], ids=["rules", "exclude-rules", "format-json"])
def test_rule_selection_and_json_report_are_gone(argv, refusal):
    """Nothing read the JSON report or ran a subset of the rules: the
    options are gone, and argparse refuses them rather than ignoring them."""
    proc = run_cli(FIXTURES / "det_wallclock.py", *argv)
    assert proc.returncode == 2
    assert refusal in proc.stderr
    assert proc.stdout == ""


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


def test_renderers_enforce_canonical_order():
    shuffled = [
        make_finding("ZZZ009", Severity.WARNING, "b.py", 2, "later path"),
        make_finding("BBB002", Severity.WARNING, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 9, "same line"),
        make_finding("AAA001", Severity.ERROR, "a.py", 3, "earlier line"),
    ]
    data = json.loads(render_sarif(shuffled, 0))
    emitted = [
        (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["ruleId"],
        )
        for r in data["runs"][0]["results"]
    ]
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
             str(FIXTURES / "det_unordered.py"), "--format", "sarif"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
