"""Hash-seed sweeps: observable behaviour must not depend on PYTHONHASHSEED.

CPython randomises ``str`` hashing per process, so any set/dict-order
dependence in a network- or schedule-visible path shows up as run-to-run
drift.  These tests re-run whole scenarios in subprocesses under several
hash seeds and require byte-identical stdout — the dynamic counterpart of
the DET003 static rule, and the regression guard for the canonical-order
fixes in ``repro.txn`` (validate fan-out sorted by server id, constraint
refusals sorted by key).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDS = ("0", "1", "12345")


def sweep(argv, timeout=300):
    """Run ``python <argv>`` under every hash seed; return the one stdout."""
    outputs = {}
    for seed in SEEDS:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = proc.stdout
    distinct = set(outputs.values())
    assert len(distinct) == 1, (
        f"output drifts across PYTHONHASHSEED {SEEDS}: "
        f"{ {s: len(o) for s, o in outputs.items()} }"
    )
    return outputs[SEEDS[0]]


OCC_MULTI_SERVER = """
from repro.sim import LinkModel, Network, Simulator
from repro.txn import OccClient, OccServer
from repro.txn.occ import OccTransaction

sim = Simulator(seed=0)
net = Network(sim, LinkModel(latency=3.0, jitter=1.0))
# String server ids whose hash order differs between seeds.
servers = {
    name: OccServer(sim, net, name, initial={"x": 10, "y": 5})
    for name in ("srv-a", "srv-b", "srv-c")
}
client = OccClient(sim, net, "cli")
done = []
txn = OccTransaction(
    reads=[("srv-c", "x"), ("srv-a", "y"), ("srv-b", "x")],
    compute=lambda ctx: {
        ("srv-a", "x"): ctx["y"] + 1,
        ("srv-c", "y"): ctx["x"] * 2,
        ("srv-b", "y"): 7,
    },
    on_done=done.append,
)
sim.call_at(1.0, client.submit, txn)
sim.run(until=2000)
print(done[0].status)
for name in sorted(servers):
    print(name, sorted(servers[name].store.items()),
          sorted(servers[name].versions.items()))
print("t", sim.now)
"""


TWO_PC_REFUSAL = """
from repro.sim import LinkModel, Network, Simulator
from repro.txn import ResourceServer, Transaction, TransactionCoordinator
from repro.txn.coordinator import write

def no_negatives(key, value, store):
    if isinstance(value, (int, float)) and value < 0:
        return "negative " + key
    return None

sim = Simulator(seed=0)
net = Network(sim, LinkModel(latency=3.0, jitter=1.0))
sa = ResourceServer(sim, net, "sa",
                    initial={"zz": 1, "aa": 2, "mm": 3},
                    constraint=no_negatives)
sb = ResourceServer(sim, net, "sb", initial={"y": 5})
co = TransactionCoordinator(sim, net, "co")
done = []
# Two violating writes staged on one server: the refusal must name the
# smallest violating key regardless of staging-dict hash order.
txn = Transaction(
    ops=[write("sa", "zz", -1), write("sa", "aa", -2), write("sb", "y", 99)],
    on_done=done.append,
)
sim.call_at(1.0, co.submit, txn)
sim.run(until=2000)
print(done[0].status, done[0].reason)
print(sorted(sa.store.items()), sorted(sb.store.items()))
print("refusals", sa.refusals)
"""


def test_occ_multi_server_sweep():
    assert sweep(["-c", OCC_MULTI_SERVER]).startswith("committed\n")


def test_2pc_constraint_refusal_sweep():
    out = sweep(["-c", TWO_PC_REFUSAL])
    # The canonical-order fix: smallest violating key wins the refusal.
    assert out.splitlines()[0] == "refused negative aa"


@pytest.mark.parametrize("name", ["e01", "e06"])
def test_experiment_report_sweep(name):
    sweep(["-m", "repro.experiments", name], timeout=600)
