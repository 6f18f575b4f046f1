"""Slices: the unit every host-time metric is measured in.

A workload is cut into identical slices; each builds a fresh group, times
one bracketed region and is judged by the oracles outside that region.  A
run takes as many slices as its time budget allows, but always at least one
per *seed group*: slice ``i`` uses the ``i % len(seeds)``-th seed.  In-sim
the groups' seeds are pinned (:func:`slice_seeds`), so the deterministic
metrics, pooled over one slice of every pinned group, depend neither on
``--seed`` nor on how fast the host happened to be, and any further slice
repeats a group and must reproduce its counts exactly.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Sequence

#: One slice's record: ``sample`` (raw/spin/calibrated seconds), ``counts``
#: (deterministic in-sim), ``verdict`` and workload-specific extras.
Record = Dict[str, Any]


#: First pinned seed.  Changing it rebases every deterministic in-sim metric.
PINNED_SEED_BASE = 1000


def slice_seeds(seed: int, groups: int) -> List[int]:
    """The seed of each group: ``groups`` pinned ones, which the
    deterministic metrics are taken over and a 2% bound can therefore gate,
    then one made from ``--seed``, which is timed and judged by the oracles
    like any other (fresh inputs on every run) but feeds no exact metric."""
    return [PINNED_SEED_BASE + g for g in range(groups)] + [seed * 1000 + groups]


class NotDeterministic(AssertionError):
    """Two slices with one seed disagreed on a deterministic count."""


def run_slices(
    run_one: Callable[[int], Record],
    seeds: Sequence[int],
    seconds: float,
    min_slices: int = 0,
    deterministic: bool = False,
) -> List[Record]:
    """Run slices for ``seconds``, at least ``max(len(seeds), min_slices)``.

    ``run_one(seed)`` runs and judges one slice.  With ``deterministic``
    every repeat of a seed must return ``counts`` equal to its first run.
    """
    floor = max(len(seeds), min_slices)
    records: List[Record] = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while len(records) < floor or time.perf_counter() + longest < deadline:
        group = len(records) % len(seeds)
        gc.collect()
        started = time.perf_counter()
        record = run_one(seeds[group])
        longest = max(longest, time.perf_counter() - started)
        record["group"] = group
        record["seed"] = seeds[group]
        if deterministic and len(records) >= len(seeds):
            first = records[group]["counts"]
            if record["counts"] != first:
                differing = sorted(
                    k for k in first if first[k] != record["counts"].get(k)
                )
                raise NotDeterministic(
                    f"seed {seeds[group]}: slice {len(records)} differs from "
                    f"slice {group} in {differing}"
                )
        records.append(record)
    return records


def first_per_group(records: Sequence[Record]) -> List[Record]:
    """One record per seed group: the pool deterministic metrics come from."""
    seen: Dict[int, Record] = {}
    for record in records:
        seen.setdefault(record["group"], record)
    return [seen[g] for g in sorted(seen)]
