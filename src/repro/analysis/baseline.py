"""Baseline files: grandfathered findings the gate tolerates.

A baseline entry is a finding *fingerprint* — ``(rule, path, context)``
where ``context`` is the stripped source line — plus an occurrence count.
Keying on line content instead of line numbers keeps the baseline stable
across unrelated edits; editing the flagged line itself invalidates its
entry, which is exactly when a human should re-decide.

Matching is counted: a baseline entry with ``count: 2`` absorbs at most two
identical fingerprints, so new copies of a grandfathered pattern still fail
the gate.  ``--update-baseline`` rewrites the file from the current run;
entries that no longer match anything are dropped (the schema keeps the
file diffable: sorted, one finding per entry).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.finding import Finding

SCHEMA = "repro.analysis/baseline-v1"

Fingerprint = Tuple[str, str, str]  # (rule, path, context)


def save(findings: List[Finding], path: Path) -> None:
    """Write ``findings`` as a baseline file (sorted, counted)."""
    counts: Counter = Counter(f.fingerprint for f in findings)
    entries = [
        {"rule": rule, "path": relpath, "context": context, "count": count}
        for (rule, relpath, context), count in sorted(counts.items())
    ]
    payload = {"schema": SCHEMA, "findings": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def update(
    findings: List[Finding],
    path: Path,
    root: Path,
    ran_rules: Set[str],
    known_rules: Set[str],
    scanned_paths: Set[str],
) -> int:
    """Rewrite the baseline from this run, pruning stale entries.

    Entries re-observed in ``findings`` are refreshed (count from this
    run).  An old entry that was *not* re-observed is:

    - **removed** when its rule id no longer exists, when its file is
      gone, or when its rule ran this invocation over its file
      (``scanned_paths``: the repo-relative paths this run loaded) and
      simply found nothing (the finding was fixed) — all three are stale;
    - **kept** when its rule exists but was filtered out of this run
      (``--rules FLOW001`` must not wipe the DET entries), or when its
      file was not in view (``--no-docs`` or an explicit-paths run must
      not wipe entries for files it never read).

    Returns the number of stale entries removed, for the CLI to report.
    """
    old: Dict[Fingerprint, int] = {}
    if path.is_file():
        old = load(path)
    observed: Counter = Counter(f.fingerprint for f in findings)
    removed = 0
    merged: Dict[Fingerprint, int] = dict(observed)
    for key, count in old.items():
        if key in observed:
            continue  # refreshed from this run
        rule, relpath, _context = key
        stale = (
            rule not in known_rules
            or not (root / relpath).exists()
            or (rule in ran_rules and relpath in scanned_paths)
        )
        if stale:
            removed += 1
        else:
            merged[key] = count
    entries = [
        {"rule": rule, "path": relpath, "context": context, "count": count}
        for (rule, relpath, context), count in sorted(merged.items())
    ]
    payload = {"schema": SCHEMA, "findings": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return removed


def load(path: Path) -> Dict[Fingerprint, int]:
    """Read a baseline file into fingerprint counts.

    Raises :class:`ValueError` on a wrong schema so a stale or hand-mangled
    baseline fails loudly instead of silently tolerating everything.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected baseline schema {SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    counts: Dict[Fingerprint, int] = {}
    for entry in payload.get("findings", []):
        key = (entry["rule"], entry["path"], entry.get("context", ""))
        counts[key] = counts.get(key, 0) + int(entry.get("count", 1))
    return counts


def apply(
    findings: List[Finding], baseline: Dict[Fingerprint, int]
) -> Tuple[List[Finding], List[Finding]]:
    """Split ``findings`` into (new, grandfathered) against ``baseline``."""
    budget = dict(baseline)
    fresh: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in findings:
        key = finding.fingerprint
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            grandfathered.append(finding)
        else:
            fresh.append(finding)
    return fresh, grandfathered
