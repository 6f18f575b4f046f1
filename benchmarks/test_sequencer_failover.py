"""Sequencer failover sweep: every survivor delivers every message.

Four members with membership and a heartbeat detector (period 8, timeout
28); p0, the lowest pid and so the ``total-seq`` sequencer and the view
coordinator, crashes at 150 while p1-p3 multicast 60 messages, one every
``gap`` units from 10.  For seeds 0-39, each gap and no loss or 5% loss,
every survivor must deliver all 60 exactly once, each sender's messages in
send order, and under a total order all survivors in one order.  ``total-seq`` once failed
17 of its 120 runs here: a member that had become sequencer asked itself
for a token and came to suspect itself (the group stalled), or numbered
from 0 again and overwrote an index already delivered (one message lost).
At 5% loss every discipline once fell short at gap 7 on a few seeds, when a
survivor lost the view install and stayed send-suppressed in the old view,
and ``total-agreed`` broke send order on every seed at gaps 1 and 3.
Every release through the causal filter (``causal``, ``total-seq``) also
asserts the BSS test, which ``CausalOrdering`` runs once per message
(``tests/catocs/test_receipt_once.py``).
"""

import pytest

from repro.catocs import build_group
from repro.sim import FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_receipt_once import fast_path_checked

PIDS = [f"p{i}" for i in range(4)]
MULTICASTS = 60
SEEDS = range(40)


def _run(ordering, seed, gap, drop_prob):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0, drop_prob=drop_prob))
    members = build_group(sim, net, PIDS, ordering=ordering, with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    FailureInjector(sim, net).crash_at(150.0, "p0")
    for k in range(MULTICASTS):
        sim.call_at(10.0 + k * gap, members[PIDS[1 + k % 3]].multicast, k)
    sim.run(until=6000)
    return [m for m in members.values() if m.alive]


def _short(ordering, survivors):
    """Why this run falls short, or None if it does not."""
    orders = [[r.msg_id for r in m.delivered] for m in survivors]
    for order in orders:
        if len(order) != MULTICASTS or len(set(order)) != MULTICASTS:
            return f"delivered {len(order)} ({len(set(order))} distinct) of {MULTICASTS}"
        for pid in PIDS:
            seqs = [seq for sender, seq in order if sender == pid]
            if seqs != sorted(seqs):
                return f"{pid}'s messages out of send order"
    if ordering.startswith("total") and any(o != orders[0] for o in orders):
        return "survivors disagree on the order"
    return None


@pytest.mark.parametrize("drop_prob", [0.0, 0.05])
@pytest.mark.parametrize("gap", [1, 3, 7])
@pytest.mark.parametrize("ordering", ["causal", "fifo", "total-seq", "total-agreed"])
def test_failover_every_survivor_delivers_everything(ordering, gap, drop_prob):
    short = {}
    with fast_path_checked() as checked:
        for seed in SEEDS:
            why = _short(ordering, _run(ordering, seed, gap, drop_prob))
            if why is not None:
                short[seed] = why
    assert not short, short
    # causal and total-seq release through the BSS filter, each release
    # asserting the test the fast path does not repeat
    assert (checked[0] > 0) == (ordering in ("causal", "total-seq"))
