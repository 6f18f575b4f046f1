"""Persistent warm-worker pool for coarse-grained parallel campaigns.

The first parallel engine (PR 2) was a ``ProcessPoolExecutor.submit`` per
experiment.  The four timing records taken while it was in use (``git show
9d8352a:BENCH_1.json`` .. ``BENCH_4.json``) showed it *losing* to a sequential
run (suite speedup 0.92-0.97): pool start-up, per-future bookkeeping and rich
pickled results ate the win, and ``os.cpu_count()`` oversubscribed
cgroup-limited CI boxes.  This module replaces it with the classic warm-worker
shape (cf. droneworks' long-lived middleware workers): spawn ``jobs``
processes *once*, let each import the experiment registry *once*, then pull
work items off a shared queue until a sentinel arrives.  Results travel back
as compact tuples — ``(key, ok, payload)`` — never as rich objects.

Three deliberate choices:

``spawn`` start method
    Forced explicitly (Linux would default to ``fork``) so worker state is
    built the same way on Linux, macOS and Windows and the merged output is
    byte-identical across platforms.  The cost of the fresh interpreter is
    paid once per worker, not once per task — that is the whole point of
    keeping the workers warm.

cyclic GC off in workers
    A worker's per-task heap is bulk-freed by reference counting when the
    task's simulator is dropped; the allocation-count-triggered cyclic
    collections CPython would run *mid-simulation* are pure overhead (~4-8%
    of suite wall clock).  Workers disable the collector and instead run one
    full collection every ``gc_every`` completed tasks, which bounds the
    uncollected-cycle residue to a few dozen MB.  The sequential path keeps
    stock GC behaviour — output is unaffected either way (the report is
    already hash-seed- and allocator-independent).

affinity-based sizing
    ``effective_cpu_count()`` uses ``os.sched_getaffinity`` (falling back to
    ``os.cpu_count()`` where it does not exist) so ``--jobs 0`` on a
    cgroup-limited CI box counts the cores this process may actually run on,
    and callers cap their shard count at the worker count instead of
    oversubscribing.

Failure semantics (the part the old engine got wrong): a task that raises is
reported per-task and the worker keeps going; a worker that *dies* (hard
crash, ``os._exit``) forfeits only its in-flight task — the parent keeps
draining finished envelopes from the surviving workers and marks exactly the
unreported keys as failures.  ``KeyboardInterrupt`` in the parent drains
every envelope that already arrived, terminates the workers, and marks the
rest as interrupted, so a half-finished campaign still reports everything it
completed and exits non-zero.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: How long the parent waits on the result queue before re-checking worker
#: liveness.  Purely a responsiveness knob; correctness does not depend on it.
_POLL_S = 0.2

#: Default worker-side full-collection cadence (completed tasks per collect).
DEFAULT_GC_EVERY = 8


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity mask, so
    on a quota-limited CI box it oversubscribes the pool and the "parallel"
    suite just thrashes one core.  Prefer the scheduling affinity where the
    platform has it (Linux); fall back to ``os.cpu_count()`` elsewhere.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # macOS/Windows: no sched_getaffinity
        return os.cpu_count() or 1


def worker_count(requested: int, tasks: int) -> int:
    """Resolve a ``--jobs`` request to an actual worker count.

    ``0`` means "size to the box" (affinity-aware); any request is capped at
    the task count — a worker with no work would only add start-up cost.
    """
    jobs = requested if requested > 0 else effective_cpu_count()
    return max(1, min(jobs, tasks))


def shard_ranges(lo: int, hi: int, shards: int) -> List[Tuple[int, int]]:
    """Split the inclusive seed range ``lo..hi`` into ``shards`` contiguous
    inclusive subranges (first ranges get the remainder).

    Shards are the unit of parallel work for ``--sweep``: one shard is coarse
    enough to amortise worker cost, and capping ``shards`` at the worker
    count (the caller's job) keeps exactly one queued shard per worker.
    """
    n = hi - lo + 1
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    out: List[Tuple[int, int]] = []
    start = lo
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def _worker_main(
    task_q: Any,
    result_q: Any,
    runner: Callable[..., Any],
    initializer: Optional[Callable[[], None]],
    gc_every: int,
) -> None:
    """Worker loop: warm up once, then pull tasks until the sentinel.

    Must stay a module-level function: the ``spawn`` context pickles it by
    reference (see PROTO004 in docs/ANALYSIS.md).
    """
    if initializer is not None:
        initializer()
    # Per-task heaps die by refcounting; the loop below bounds the cyclic
    # residue with a periodic collect (see docs/PERFORMANCE.md).
    gc.disable()
    completed = 0
    while True:
        item = task_q.get()
        if item is None:  # sentinel: one per worker
            break
        key, payload = item
        try:
            result_q.put((key, True, runner(*payload)))
        except Exception:
            # The task failed but the worker is fine: report and keep pulling.
            result_q.put((key, False, traceback.format_exc()))
        completed += 1
        if gc_every > 0 and completed % gc_every == 0:
            gc.collect()


@dataclass
class PoolOutcome:
    """What :meth:`WarmWorkerPool.run` hands back.

    ``results`` maps task key -> runner return value for every task that
    reported; ``failures`` maps key -> reason string for every task that did
    not (task raised, worker died, or the run was interrupted).  Key sets are
    disjoint and their union is exactly the submitted keys.
    """

    results: Dict[Any, Any] = field(default_factory=dict)
    failures: Dict[Any, str] = field(default_factory=dict)
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted


class WarmWorkerPool:
    """A fixed set of persistent worker processes fed from one task queue.

    Parameters
    ----------
    jobs:
        Worker-process count (already resolved via :func:`worker_count`).
    runner:
        Module-level callable executed as ``runner(*payload)`` for each task.
        Its return value must be pickle-safe (compact tuples by convention).
    initializer:
        Optional module-level callable run once per worker before the first
        task — the warm-up hook (e.g. pre-importing the experiment registry).
    context:
        Multiprocessing start method.  ``spawn`` (the default) is forced for
        cross-platform identical results; tests may pass ``fork`` to assert
        exactly that identity.
    gc_every:
        Worker-side full-collection cadence; ``0`` disables periodic
        collects (workers still free acyclic garbage via refcounting).
    """

    def __init__(
        self,
        jobs: int,
        runner: Callable[..., Any],
        initializer: Optional[Callable[[], None]] = None,
        context: str = "spawn",
        gc_every: int = DEFAULT_GC_EVERY,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._runner = runner
        self._initializer = initializer
        self._ctx = multiprocessing.get_context(context)
        self._gc_every = gc_every

    # -- lifecycle ----------------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[Any, Tuple[Any, ...]]]) -> PoolOutcome:
        """Execute ``tasks`` (``(key, payload)`` pairs; keys unique) and
        collect one envelope per task.

        Workers are started fresh for each ``run`` call and shut down (via
        one sentinel each) when the queue drains; within the run they are
        reused across every task, which is where the warm-up amortisation
        comes from.
        """
        keys = [key for key, _ in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique")
        outcome = PoolOutcome()
        if not tasks:
            return outcome

        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        for item in tasks:
            task_q.put(item)
        for _ in range(self.jobs):
            task_q.put(None)

        workers = [
            self._ctx.Process(
                target=_worker_main,
                args=(task_q, result_q, self._runner, self._initializer,
                      self._gc_every),
                daemon=True,
            )
            for _ in range(self.jobs)
        ]
        for worker in workers:
            worker.start()

        pending = set(keys)
        try:
            self._drain(result_q, workers, pending, outcome)
        except KeyboardInterrupt:
            outcome.interrupted = True
            self._drain_nowait(result_q, pending, outcome)
            for key in sorted(pending, key=keys.index):
                outcome.failures[key] = (
                    "interrupted before the worker reported "
                    "(KeyboardInterrupt); completed sibling results were kept"
                )
            pending.clear()
        finally:
            self._shutdown(workers)

        for key in sorted(pending, key=keys.index):
            outcome.failures[key] = "worker process died before reporting"
        return outcome

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _record(outcome: PoolOutcome, envelope: Tuple[Any, bool, Any]) -> None:
        key, ok, payload = envelope
        if ok:
            outcome.results[key] = payload
        else:
            outcome.failures[key] = payload

    def _drain(
        self,
        result_q: Any,
        workers: List[Any],
        pending: set,
        outcome: PoolOutcome,
    ) -> None:
        """Collect envelopes until every task reported or no worker is left."""
        while pending:
            try:
                envelope = result_q.get(timeout=_POLL_S)
            except queue.Empty:
                if any(worker.is_alive() for worker in workers):
                    continue
                # Every worker exited: whatever is still buffered is all we
                # will ever get — final non-blocking drain, then give up on
                # the remainder (they become CRASH envelopes upstream).
                self._drain_nowait(result_q, pending, outcome)
                return
            self._record(outcome, envelope)
            pending.discard(envelope[0])

    def _drain_nowait(self, result_q: Any, pending: set,
                      outcome: PoolOutcome) -> None:
        while True:
            try:
                envelope = result_q.get_nowait()
            except queue.Empty:
                return
            self._record(outcome, envelope)
            pending.discard(envelope[0])

    @staticmethod
    def _shutdown(workers: List[Any]) -> None:
        for worker in workers:
            worker.join(timeout=_POLL_S)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
