"""Agreed total order under loss: a sweep guarding the re-solicit deadline.

``total-agreed`` re-solicits a missing proposal one measured round after the
send and gives up after ``max_proposal_retries`` rounds, committing without
the silent member.  This sweep runs ``sim-total-lossy``'s group shape (eight
members, one multicast per unit, latency 3 + jitter 2) at 0-15% loss on
pinned seeds and checks with :func:`repro.check.judge` that every
multicast reaches every member exactly once, in one agreed order that is
causal and so keeps each sender's send order.  It also checks that no
commit was forced and that no receiver gave up chasing a commit it knew
was sent.  At 15% loss seeds 2001 and 2003 each force a commit when the
layer gives up after eight rounds instead of twelve.

It also checks that every retention buffer drains by the horizon, though
an applied commit releases its message ahead of the stable frontier: each
member's hold-back structures (stability buffer and heaps included) are
empty, and no NAK round found nobody to ask.  ``_forced`` has no bound of
its own: it is asserted to name only ids in ``_commit_values``, the record
kept for good.
"""

import pytest

from repro.catocs import build_group
from repro.sim import EventTrace, LinkModel, Network, Simulator
from tests.catocs.test_causal_property import held_back
from tests.catocs.test_check import assert_judged

MEMBERS = 8
MULTICASTS = 200


def _run(seed, drop_prob):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=drop_prob))
    pids = [f"p{i}" for i in range(MEMBERS)]
    group = build_group(sim, net, pids, ordering="total-agreed", trace=EventTrace())
    for k in range(MULTICASTS):
        sim.call_at(1.0 + k, group[pids[k % MEMBERS]].multicast, k)
    sim.run(until=MULTICASTS + 2000.0)
    return group


@pytest.mark.parametrize("seed", [1000, 1001, 2001, 2003])
@pytest.mark.parametrize("drop_prob", [0.0, 0.05, 0.10, 0.15])
def test_agreed_loss_delivers_everything_in_one_order(drop_prob, seed):
    group = _run(seed, drop_prob)
    assert_judged(group, "total-agreed", MULTICASTS)
    assert sum(m.ordering.proposals_forced for m in group.values()) == 0
    assert sum(m.ordering.commit_chases_abandoned for m in group.values()) == 0
    for member in group.values():
        assert not held_back(member), (member.pid, held_back(member))
        assert member.stack.layer("dedup").naks_unroutable == 0, member.pid
        assert member.ordering._forced <= member.ordering._commit_values.keys()
