"""``suite-seq``: the nineteen experiments, in order, in one process.

This is the product: what ``python -m repro.experiments`` runs, minus the
printing.  It is the only workload that reaches the applications, the
transaction and detection code, the state-level alternatives, the DSM and
membership, and its rendered reports are what "same behaviour" means for a
deletion PR.  The experiments pin their own seeds, so ``--seed`` changes
nothing here, and one pass is one sample: ``--seconds`` is not used either.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from perfbench.calibrate import bracketed
from perfbench.catalogue import EXPERIMENTS
from perfbench.check import check_verdicts

#: ``--smoke`` runs only these (fast, and one of them builds a CATOCS group).
SMOKE_EXPERIMENTS = ("E01", "E02")


def run_pass(names: Sequence[str] = EXPERIMENTS) -> Dict[str, Any]:
    """Run ``names`` in order; one calibrated sample per experiment."""
    from repro.experiments.run_all import run_one

    experiments: List[Dict[str, Any]] = []
    digest = hashlib.sha256()
    for name in names:
        envelope, sample = bracketed(lambda: run_one(name, False))
        digest.update(envelope["rendered"].encode("utf-8"))
        experiments.append({
            "name": name,
            "verdict": envelope["verdict"],
            "failed_checks": envelope["failed_checks"],
            "sample": sample,
        })
    verdict = check_verdicts({e["name"]: e["verdict"] for e in experiments}, names)
    return {
        "experiments": experiments,
        "suite_cal_s": sum(e["sample"]["cal_s"] for e in experiments),
        "raw_wall_s": sum(e["sample"]["raw_s"] for e in experiments),
        "report_sha256": digest.hexdigest(),
        "verdict": verdict.as_dict(),
    }
