"""Worker-side execution of file-local rules, shared with the in-process path.

The incremental engine fans the file-local rule families (DET/PUR —
anything :func:`repro.analysis.rules.is_file_local` accepts) out across
the experiment engine's :class:`~repro.experiments.engine.WarmWorkerPool`.
Each task is one *shard* of stale files; the worker parses its own shard
(so parse work parallelises with rule work) and returns compact
pickle-safe tuples of cache-serialised findings — never rich objects,
matching the pool's envelope convention.

:func:`analyze_module` is the single definition of per-``(file, rule)``
dedup + suppression.  It partitions the legacy engine's global pipeline
exactly: the dedup key ``(rule, path, line, message)`` already separates
by rule and by file, and a suppression verdict depends only on the file's
own comment map — so running it per ``(file, rule)`` and concatenating is
byte-equivalent to the one-pass original, which is what makes the results
cacheable per ``(file, rule)`` in the first place.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import finding_to_cache
from repro.analysis.finding import Finding
from repro.analysis.source import SourceModule, load_python_file
from repro.analysis.suppress import is_suppressed

#: One file's worth of work: ``(relpath, bucket, rule_ids)``.
WorkItem = Tuple[str, str, Tuple[str, ...]]
#: One file's worth of results: ``(relpath, parse_error, payloads)`` where
#: ``payloads`` is ``[(rule_id, [finding dicts], suppressed), ...]``.
FileResult = Tuple[str, Optional[str], List[Tuple[str, List[Dict], int]]]


def analyze_module(
    mod: SourceModule, rules: Sequence[Any]
) -> List[Tuple[str, List[Finding], int]]:
    """Run ``rules``' module hooks on one file: dedup, suppress, report.

    Returns ``[(rule_id, kept_findings, suppressed_count), ...]`` in rule
    order.  Findings a rule pins to *another* file's path (none of the
    current file-local rules do) are kept unsuppressed — that file's
    comment map is not in view here, and guessing would diverge from the
    project pass.
    """
    out: List[Tuple[str, List[Finding], int]] = []
    for rule in rules:
        kept: List[Finding] = []
        seen = set()
        suppressed = 0
        for finding in rule.check_module(mod):
            key = (finding.rule_id, finding.path, finding.line,
                   finding.message)
            if key in seen:
                continue
            seen.add(key)
            if finding.path == mod.relpath and is_suppressed(
                mod.suppressions,
                finding.rule_id,
                finding.line,
                mod.stmt_start(finding.line),
            ):
                suppressed += 1
                continue
            kept.append(finding)
        out.append((rule.rule_id, kept, suppressed))
    return out


def run_shard(
    root_str: str, src_root_str: str, work: Sequence[WorkItem]
) -> Tuple[int, List[FileResult]]:
    """Pool runner: parse and analyse one shard of stale files.

    Module-level by contract — the ``spawn`` context pickles it by
    reference.  Returns ``(parse_count, results)``; the parent decodes the
    finding dicts, folds them into the merged report, and records them in
    the cache.
    """
    root = Path(root_str)
    src_root = Path(src_root_str)
    from repro.analysis.rules import rule_catalogue

    catalogue = rule_catalogue()
    parses = 0
    results: List[FileResult] = []
    for relpath, _bucket, rule_ids in work:
        mod, error = load_python_file(root / relpath, root, src_root)
        parses += 1
        if mod is None:
            results.append((relpath, error, []))
            continue
        rules = [catalogue[rule_id] for rule_id in rule_ids]
        payloads = [
            (rule_id, [finding_to_cache(f) for f in kept], suppressed)
            for rule_id, kept, suppressed in analyze_module(mod, rules)
        ]
        results.append((relpath, None, payloads))
    return parses, results


def shard_work(work: Sequence[WorkItem], shards: int) -> List[List[WorkItem]]:
    """Split the stale-file list into at most ``shards`` contiguous runs.

    Contiguous (the list arrives in sorted-relpath order) so neighbouring
    files — which tend to share import-heavy packages — stay on one
    worker, and deterministic so task keys are stable run to run.
    """
    shards = max(1, min(shards, len(work)))
    base, extra = divmod(len(work), shards)
    out: List[List[WorkItem]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(list(work[start:start + size]))
        start += size
    return [s for s in out if s]
