"""The two "same behaviour" pins, checked where every change is checked.

``tests/experiments/seed_report.sha256`` is the digest of the nineteen
rendered reports in suite order (what ``python3 -m perfbench run --workload
suite-seq`` prints as ``report_sha256``); ``seed_metrics.sha256`` is the
digest of the file ``python -m repro.experiments --metrics-out`` writes.
The hosted workflow compares both after a full run of each; this runs the
suite once, in-process, and compares both here.  A change that moves either
on purpose updates the pinned file.
"""

import hashlib
from pathlib import Path

from repro.experiments.run_all import PASS, registry, run_one
from repro.obs import write_json

PINS = Path(__file__).parent


def test_suite_report_and_metrics_export_match_the_pinned_digests(tmp_path):
    envelopes = [run_one(name, True) for name in registry()]
    assert [e["verdict"] for e in envelopes] == [PASS] * len(envelopes)

    report = hashlib.sha256()
    for envelope in envelopes:
        report.update(envelope["rendered"].encode("utf-8"))
    assert report.hexdigest() == (PINS / "seed_report.sha256").read_text().strip()

    export = tmp_path / "metrics.json"
    write_json(str(export), {e["name"]: e["metrics"] for e in envelopes})
    assert (hashlib.sha256(export.read_bytes()).hexdigest()
            == (PINS / "seed_metrics.sha256").read_text().strip())
