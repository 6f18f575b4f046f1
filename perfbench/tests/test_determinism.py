import json
import os
import subprocess
import sys

import pytest

from perfbench import ROOT, SRC, simload
from perfbench.slices import NotDeterministic, first_per_group, run_slices, slice_seeds

WORKLOADS = ("sim-causal-clean", "sim-total-lossy")


@pytest.mark.parametrize("name", WORKLOADS)
def test_two_slices_with_one_seed_agree_on_every_count(name):
    sizes = simload.SMOKE_SIZES[name]
    first, second = simload.run_slice(sizes, 7), simload.run_slice(sizes, 7)
    assert first["counts"] == second["counts"]
    assert first["latencies"] == second["latencies"]
    assert first["verdict"]["failed"] == 0
    other = simload.run_slice(sizes, 8)
    assert other["counts"] != first["counts"]  # the seed does reach the inputs


def test_run_slices_covers_every_group_and_checks_repeats():
    calls = []

    def run_one(seed):
        calls.append(seed)
        return {"counts": {"n": seed}}

    records = run_slices(run_one, [10, 11, 12], seconds=0.0, min_slices=5, deterministic=True)
    assert calls == [10, 11, 12, 10, 11]
    assert [r["group"] for r in records] == [0, 1, 2, 0, 1]
    assert [r["seed"] for r in first_per_group(records)] == [10, 11, 12]

    drifting = iter(range(100))
    with pytest.raises(NotDeterministic):
        run_slices(lambda seed: {"counts": {"n": next(drifting)}}, [1], seconds=0.0,
                   min_slices=2, deterministic=True)


def test_seed_groups_are_pinned_but_for_the_last():
    assert slice_seeds(3, 4) == [1000, 1001, 1002, 1003, 3004]
    assert slice_seeds(4, 4)[:4] == slice_seeds(3, 4)[:4]
    for seed in range(50):  # --seed never lands on a pinned group
        assert slice_seeds(seed, 24)[-1] not in slice_seeds(seed, 24)[:-1]


def test_pooled_leaves_the_seeded_group_out():
    sizes = simload.SMOKE_SIZES["sim-causal-clean"]
    records = []
    for group, seed in enumerate(slice_seeds(9, sizes.seed_groups)):
        records.append(dict(simload.run_slice(sizes, seed), group=group, seed=seed))
    pool = simload.pooled(records, sizes.seed_groups)
    assert pool["groups"] == sizes.seed_groups == len(records) - 1
    assert pool["deliveries"] == sum(r["counts"]["deliveries"] for r in records[:-1])


def _measure(name, hashseed, seed="5"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([str(ROOT), str(SRC)]))
    out = subprocess.run(
        [sys.executable, "-m", "perfbench", "_child", "measure", name, seed, "0.0", "1", ""],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    ).stdout
    body = json.loads(out.strip().splitlines()[-1])
    exact = {k: v for k, v in body["native"].items() if k != "cal_us_per_delivery"}
    return exact, body["pool"]["totals"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_deterministic_metrics_depend_on_neither_the_hash_seed_nor_the_seed(name):
    assert _measure(name, "1") == _measure(name, "2") == _measure(name, "2", seed="6")
