"""A trimmed run's result record is the record its old horizon gave.

Several runs end a settle window after their last stimulus (a scheduled
write, multicast, crash, recovery or rejoin) instead of at a long fixed
horizon: EXPERIMENTS.md, "Settled horizons".  Past that window only
heartbeats and quiet gossip ticks remain.  Each case here runs once as
shipped and once with ``Simulator.run`` patched to run to the old horizon
whatever it is asked, and the two records must be equal.  The patched run
also checks that every horizon the run asked for is below the old one, so
a case whose trim was undone fails here too.

This file runs seeds 0-1; ``benchmarks/test_settled_runs.py`` runs 0-19.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict
from unittest import mock

import pytest

from repro.apps.deceit import run_deceit
from repro.apps.drilling import run_drilling_catocs, run_drilling_central
from repro.apps.harp import run_harp
from repro.apps.trading import run_trading
from repro.experiments import (
    e05_scaling,
    e06_false_causality,
    e13_membership,
    e15_piggyback,
    e17_partitioning,
)
from repro.sim import Simulator

#: E09's crash point and its Harp recovery (``run_e09``).
CRASH_AT = 163.0
RECOVER_AT = CRASH_AT + 400.0
#: E11's driller crash (``run_e11``).
DRILLER_CRASH_AT = 50.0


def _trading(seed: int, ordering: str, theo_latency: float) -> Any:
    """E04's run with its trace's entries in place of the trace, which has
    no ``==`` of its own."""
    result = run_trading(seed=seed, ordering=ordering, ticks=8, theo_latency=theo_latency)
    return replace(result, trace=result.trace.entries)


@dataclass(frozen=True)
class SettledRun:
    #: the run as the experiment calls it, given a seed
    run: Callable[[int], Any]
    #: the fixed horizon the run had before it was trimmed
    old_horizon: float


def _cases() -> Dict[str, SettledRun]:
    cases: Dict[str, SettledRun] = {}
    for ordering in ("causal", "total-seq", "total-agreed"):
        for lag in (3.0, 15.0, 25.0, 40.0):
            cases[f"E04-{ordering}-lag{lag}"] = SettledRun(
                lambda seed, o=ordering, lag=lag: _trading(seed, o, lag), 10_000)
    for k in (0, 1, 2):
        cases[f"E09-deceit-k{k}"] = SettledRun(
            lambda seed, k=k: run_deceit(seed=seed, write_safety=k), 30_000)
        cases[f"E09-deceit-k{k}-crash"] = SettledRun(
            lambda seed, k=k: run_deceit(seed=seed, write_safety=k,
                                         crash_primary_at=CRASH_AT), 30_000)
    cases["E09-harp"] = SettledRun(lambda seed: run_harp(seed=seed), 60_000)
    cases["E09-harp-crash-recover"] = SettledRun(
        lambda seed: run_harp(seed=seed, crash_replica_at=CRASH_AT,
                              recover_at=RECOVER_AT), 60_000)
    for size in (3, 5, 8, 12, 16):
        cases[f"E13-N{size}"] = SettledRun(
            lambda seed, size=size: e13_membership._run(seed, size), 2500.0)
        cases[f"E05-N{size}"] = SettledRun(
            lambda seed, size=size: e05_scaling._run_group(seed, size, 12, 400.0, 80.0),
            2400.0)
    for drop_prob in (0.0, 0.03, 0.08, 0.15):
        for ordering in ("raw", "fifo", "causal"):
            cases[f"E06-{ordering}-{drop_prob}"] = SettledRun(
                lambda seed, p=drop_prob, o=ordering: e06_false_causality.run_ticks(
                    seed, o, p, 6, 25, 12.0), 3300.0)
    for drop_prob in (0.0, 0.05, 0.15):
        for name, ordering in (("causal", "causal"),
                               ("piggyback", e15_piggyback.PIGGYBACK_STACK)):
            cases[f"E15-{name}-{drop_prob}"] = SettledRun(
                lambda seed, p=drop_prob, o=ordering: e06_false_causality.run_ticks(
                    seed, o, p, 6, 25, 12.0), 3300.0)
    for design, run in (("catocs", run_drilling_catocs), ("central", run_drilling_central)):
        for drillers in (2, 4, 6, 8):
            cases[f"E11-{design}-D{drillers}"] = SettledRun(
                lambda seed, run=run, d=drillers: run(seed=seed, drillers=d, holes=4 * d),
                20.0 * 4 * drillers + 1000.0)
        cases[f"E11-{design}-crash"] = SettledRun(
            lambda seed, run=run: run(seed=seed, drillers=4, holes=16,
                                      crash_driller_at=DRILLER_CRASH_AT),
            20.0 * 16 + 1000.0)
    for partitioned in (True, False):
        cases[f"E17-bridged-partitioned={partitioned}"] = SettledRun(
            lambda seed, p=partitioned: e17_partitioning._bridged_run(seed, p), 5000.0)
    for split in (False, True):
        cases[f"E17-buffer-split={split}"] = SettledRun(
            lambda seed, s=split: e17_partitioning._buffer_cost(seed, 12, s), 2400.0)
    return cases


SETTLED_RUNS = _cases()


def assert_settled(case: str, seed: int) -> None:
    """Run ``case`` as shipped and at its old horizon; the records must match."""
    settled = SETTLED_RUNS[case]
    trimmed = settled.run(seed)

    asked = []
    original = Simulator.run

    def run_to_old_horizon(self, until=None, max_events=None):
        asked.append(until)
        return original(self, settled.old_horizon, max_events)

    with mock.patch.object(Simulator, "run", run_to_old_horizon):
        untrimmed = settled.run(seed)
    assert asked and all(until < settled.old_horizon for until in asked), asked
    assert trimmed == untrimmed


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(SETTLED_RUNS))
def test_trimmed_run_keeps_its_record_at_the_old_horizon(case, seed):
    assert_settled(case, seed)
