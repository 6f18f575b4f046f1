"""Agreed-order repair traffic in whole groups: who asks for a commit and
when, the order a sender commits in, what per-message agreement state is
left once a lossy run drains, and which commits release their message from
the stability buffer."""

from collections import Counter

import pytest

from repro.apps.trading import run_trading
from repro.catocs import build_group
from repro.catocs.messages import (
    CommitRequest,
    DataMessage,
    ForcedCommit,
    Nak,
    PriorityCommit,
    PriorityProposal,
    ProposalRequest,
)
from repro.experiments.e07_overhead import _measure
from repro.sim import EventTrace, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged

PIDS = ["p0", "p1", "p2", "p3", "p4"]
LATENCY = 3.0


class RecordingNetwork(Network):
    """Keeps every ``(src, dst, payload)`` put on the wire, with its send
    time in ``times``, and loses the packets ``lose(src, dst, payload)``
    picks (they are logged, never delivered)."""

    def __init__(self, sim, link, lose=None):
        super().__init__(sim, link)
        self.log = []
        self.times = []
        self.lose = lose

    def send(self, src, dst, payload, size=None):
        self.log.append((src, dst, payload))
        self.times.append(self.sim.now)
        if self.lose is not None and self.lose(src, dst, payload):
            return None
        return super().send(src, dst, payload, size)

    def sent(self, kind):
        """``(time, src, dst, payload)`` of every ``kind`` payload sent."""
        return [(t, *entry) for t, entry in zip(self.times, self.log)
                if isinstance(entry[2], kind)]


def _run(seed, drop_prob):
    """Sixty round-robin multicasts through five members, run to quiescence."""
    sim = Simulator(seed=seed)
    net = RecordingNetwork(sim, LinkModel(latency=3.0, jitter=2.0, drop_prob=drop_prob))
    group = build_group(sim, net, PIDS, ordering="total-agreed", trace=EventTrace())
    for k in range(60):
        sim.call_at(1.0 + k, group[PIDS[k % 4]].multicast, k)
    sim.run(until=900.0)
    requests = [(src, dst, p) for src, dst, p in net.log if isinstance(p, CommitRequest)]
    return group, requests


def test_a_loss_free_group_sends_no_commit_requests():
    group, requests = _run(seed=33, drop_prob=0.0)
    assert requests == []
    assert all(len(m.delivered) == 60 for m in group.values())


def test_commit_requests_go_to_the_sender_and_never_from_it():
    for seed in (33, 34, 35):
        group, requests = _run(seed, drop_prob=0.05)
        assert requests, seed  # the lossy run exercises the repair path
        for src, dst, request in requests:
            sender = request.msg_id[0]
            assert src == request.requester != sender
            assert dst == sender  # nobody is suspected: ask only the sender
        assert_judged(group, "total-agreed", 60)


def test_a_drained_lossy_run_leaves_no_agreement_state():
    group, _ = _run(seed=33, drop_prob=0.05)
    for member in group.values():
        layer = member.ordering
        assert layer._pending == {} and layer._heap == []
        assert layer._proposals == {} and layer._retries == {}
        assert layer._asked == {} and layer._open == {} and layer._ready == set()
        assert layer._chasing == {}
        assert len(layer._commit_values) == 60  # kept to answer requests
        assert layer.layer_metrics()["proposals_forced"] == 0
        assert layer.layer_metrics()["commit_chases_abandoned"] == 0


def _lose_first(kind, src, dst, wanted, times=1):
    """A ``lose`` predicate: the first ``times`` ``kind`` packets from
    ``src`` to ``dst`` for each msg_id in ``wanted``."""
    lost = Counter()

    def lose(s, d, payload):
        mid = getattr(payload, "msg_id", None)
        if (isinstance(payload, kind) and s in src and d == dst
                and mid in wanted and lost[mid] < times):
            lost[mid] += 1
            return True
        return False
    return lose


def _either(*predicates):
    """A ``lose`` predicate losing what any of ``predicates`` loses."""
    return lambda s, d, payload: any(lose(s, d, payload) for lose in predicates)


def _scripted(lose, sends, prepare=None, until=400.0):
    """Three members on fixed-latency links; ``sends`` is ``(time, pid)``;
    ``prepare(group)`` runs before the first send."""
    sim = Simulator(seed=0)
    net = RecordingNetwork(sim, LinkModel(latency=LATENCY), lose)
    group = build_group(sim, net, PIDS[:3], ordering="total-agreed")
    if prepare is not None:
        prepare(group)
    for k, (at, pid) in enumerate(sends):
        sim.call_at(at, group[pid].multicast, k)
    sim.run(until=until)
    return group, net


def _nak_delay(member):
    return getattr(member, "nak_delay", 5.0)


def test_a_sender_commits_its_messages_in_seq_order():
    # p2's proposal for p0's first message is lost, so the second message
    # has all its proposals first; its commit still follows the first's.
    lose = _lose_first(PriorityProposal, {"p2"}, "p0", {("p0", 1)})
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0")])
    commits = [(t, p.msg_id) for t, src, _, p in net.sent(PriorityCommit) if src == "p0"]
    first = {}
    for t, mid in commits:
        first.setdefault(mid, t)
    assert list(first) == [("p0", 1), ("p0", 2)]
    assert first[("p0", 1)] == first[("p0", 2)]  # released in one tick
    orders = {tuple(r.msg_id for r in m.delivered) for m in group.values()}
    assert orders == {(("p0", 1), ("p0", 2))}


def _round_robin(drop_prob):
    """Four members, sixty round-robin multicasts on seed 0."""
    pids = PIDS[:4]
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=LATENCY, jitter=2.0, drop_prob=drop_prob))
    group = build_group(sim, net, pids, ordering="total-agreed", trace=EventTrace())
    for k in range(60):
        sim.call_at(1.0 + k, group[pids[k % 4]].multicast, k)
    sim.run(until=900.0)
    return group


@pytest.mark.parametrize("drop_prob", [0.0, 0.01])
def test_every_member_delivers_each_sender_in_send_order(drop_prob):
    """The lattice puts total-agreed above FIFO.  At 1% loss a member
    gets a message late, by repair, and proposes high for it, so without
    the sender's raise its next commit would go below it (12 of 240
    deliveries after a later seq from the same sender)."""
    assert_judged(_round_robin(drop_prob), "total-agreed", 60)


def test_a_commit_not_above_the_senders_last_goes_out_one_above_it():
    # p2 loses p0's first message and gets it by repair after the second,
    # so it proposes 1 for the second and 2 for the first.  The first
    # commits at (2, p2); the second collects (2, p1), not above it, and
    # goes out at (3, p0).
    lose = _lose_first(DataMessage, {"p0"}, "p2", {("p0", 1)})
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0")])
    proposals = {(p.proposer, p.msg_id): p.priority
                 for _, _, _, p in net.sent(PriorityProposal)}
    assert proposals == {("p1", ("p0", 1)): 1, ("p1", ("p0", 2)): 2,
                         ("p2", ("p0", 1)): 2, ("p2", ("p0", 2)): 1}
    commits = {p.msg_id: (p.priority, p.tiebreak)
               for _, src, _, p in net.sent(PriorityCommit) if src == "p0"}
    assert commits == {("p0", 1): (2, "p2"), ("p0", 2): (3, "p0")}
    for member in group.values():
        assert [r.msg_id for r in member.delivered] == [("p0", 1), ("p0", 2)]
        assert member.ordering._commit_values == commits


def test_a_raised_commit_can_tie_another_final_key_and_msg_id_breaks_it():
    """The raise commits ``(last + 1, own pid)``, and ``own pid`` may have
    proposed ``last + 1`` for another message that then committed at that
    same key.  The heap key ends in ``msg_id``, so every member breaks the
    tie one way; and since each final key is still at least every member's
    tentative key for it, no member delivers either message early.  Here
    p1's third message is raised to (24, p1), the key p1's proposal gave
    p2's sixth."""
    group = _round_robin(0.01)
    finals = group["p0"].ordering._commit_values
    ties = Counter(finals.values())
    tied = sorted(mid for mid, key in finals.items() if ties[key] > 1)
    assert tied == [("p1", 3), ("p2", 6)]
    assert finals[("p1", 3)] == finals[("p2", 6)] == (24, "p1")
    for member in group.values():
        assert member.ordering._commit_values == finals
        order = [r.msg_id for r in member.delivered]
        assert order.index(("p2", 6)) == order.index(("p1", 3)) + 1


def test_forged_proposals_leave_no_agreement_state():
    """Proposals go only to a message's sender.  p1 sends p0 proposals
    for ids p0 never sent, another sender's and p0's own unsent seqs:
    p0 keeps none of them, and its own message still commits."""
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=LATENCY))
    group = build_group(sim, net, PIDS[:3], ordering="total-agreed")
    layer = group["p0"].ordering
    before = layer.layer_metrics()
    for i in range(500):
        for sender in ("p2", "p0"):
            forged = PriorityProposal(group=group["p1"].group, proposer="p1",
                                      msg_id=(sender, 10**6 + i), priority=i)
            net.send("p1", "p0", forged)
    sim.run(until=20.0)
    assert layer._proposals == {}
    assert layer.layer_metrics() == before
    group["p0"].multicast("legit")
    sim.run(until=100.0)
    assert layer._proposals == {}
    assert all(m.delivered_payloads() == ["legit"] for m in group.values())


def test_a_lost_commit_is_asked_for_when_the_next_one_arrives():
    lose = _lose_first(PriorityCommit, {"p0"}, "p1", {("p0", 1)})
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0")])
    nak_delay = _nak_delay(group["p1"])
    proof = min(t for t, src, dst, p in net.sent(PriorityCommit)
                if dst == "p1" and p.msg_id == ("p0", 2)) + LATENCY
    asks = [(t, p.msg_id) for t, src, _, p in net.sent(CommitRequest) if src == "p1"]
    assert asks == [(proof + nak_delay, ("p0", 1))]
    delivered_at = {r.msg_id: r.delivered_at for r in group["p1"].delivered}
    # within the grace plus one round trip, long before the fallback's
    # held_since + commit_repair_delay
    assert delivered_at[("p0", 1)] <= proof + nak_delay + 2 * LATENCY
    assert delivered_at[("p0", 1)] < 1.0 + LATENCY + 6 * nak_delay


def _asks(net, requester):
    """``(time, msg_id)`` of every ``CommitRequest`` ``requester`` sent."""
    return [(t, p.msg_id) for t, src, _, p in net.sent(CommitRequest) if src == requester]


def _proof_at(net, dst, proof):
    """When the first copy of ``proof``'s commit reaches ``dst``."""
    return min(t for t, _, d, p in net.sent(PriorityCommit)
               if d == dst and p.msg_id == proof) + LATENCY


def test_the_grace_is_half_the_measured_spread_at_most_nak_delay():
    group, _ = _scripted(None, [])
    layer = group["p0"].ordering
    nak_delay = group["p0"].nak_delay
    assert layer.slowest_round == layer.fastest_round == 0.0
    assert layer.proof_grace == nak_delay  # no round measured yet
    for slowest, fastest, grace in ((8.0, 6.0, 1.0), (6.0, 6.0, 0.0),
                                    (30.0, 6.0, nak_delay)):
        layer.slowest_round, layer.fastest_round = slowest, fastest
        assert layer.proof_grace == grace


def test_only_proposals_answered_before_a_re_solicit_are_fastest_samples():
    # p2's first proposal for the first message is lost and re-solicited:
    # p1's answer from the first round is a sample, p2's late one is not,
    # and the round is not a slowest sample.
    lose = _lose_first(PriorityProposal, {"p2"}, "p0", {("p0", 1)})
    group, _ = _scripted(lose, [(1.0, "p0")])
    layer = group["p0"].ordering
    assert (layer.fastest_round, layer.slowest_round) == (2 * LATENCY, 0.0)
    assert layer.proof_grace == group["p0"].nak_delay
    # Both first-round proposals lost: nothing is sampled at all.
    lose = _lose_first(PriorityProposal, {"p1", "p2"}, "p0", {("p0", 1)}, times=2)
    group, net = _scripted(lose, [(1.0, "p0")])
    layer = group["p0"].ordering
    assert len(net.sent(ProposalRequest)) == 2
    assert (layer.fastest_round, layer.slowest_round) == (0.0, 0.0)
    assert all(len(m.delivered) == 1 for m in group.values())


def test_a_lost_commit_is_asked_for_one_measured_grace_after_its_proof():
    # p1's rounds spread 6 to 8, so it asks 1 after each proof, and on
    # fresh proof only once 2 have passed since its last ask: the proofs
    # of the second, third and fourth commits draw asks at +0 and +2.
    lose = _lose_first(PriorityCommit, {"p0"}, "p1", {("p0", 1)})

    def measured(group):
        layer = group["p1"].ordering
        layer.slowest_round, layer.fastest_round = 8.0, 6.0

    sends = [(1.0 + k, "p0") for k in range(4)]
    group, net = _scripted(lose, sends, prepare=measured)
    grace = group["p1"].ordering.proof_grace
    assert grace == 1.0
    proofs = [_proof_at(net, "p1", ("p0", seq)) for seq in (2, 3, 4)]
    assert proofs == [11.0, 12.0, 13.0]
    asks = _asks(net, "p1")
    assert asks == [(proofs[0] + grace, ("p0", 1)), (proofs[2] + grace, ("p0", 1))]
    assert asks[1][0] - asks[0][0] == 2 * grace
    delivered_at = {r.msg_id: r.delivered_at for r in group["p1"].delivered}
    assert delivered_at[("p0", 1)] == proofs[0] + grace + 2 * LATENCY


def test_a_lost_answer_is_asked_for_again_one_proposal_timeout_later():
    # The commit and the answer to p1's proof-triggered request are both
    # lost; no further proof arrives, so only the chase asks again.
    lose = _lose_first(PriorityCommit, {"p0"}, "p1", {("p0", 1)}, times=2)
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0")])
    layer = group["p1"].ordering
    first = _proof_at(net, "p1", ("p0", 2)) + group["p1"].nak_delay
    timeout = layer.proposal_timeout
    assert _asks(net, "p1") == [(first, ("p0", 1)), (first + timeout, ("p0", 1))]
    delivered_at = {r.msg_id: r.delivered_at for r in group["p1"].delivered}
    assert delivered_at[("p0", 1)] == first + timeout + 2 * LATENCY
    assert layer._chasing == {}
    assert layer.layer_metrics()["commit_chases_abandoned"] == 0


def test_a_chase_gives_up_after_max_proposal_retries_asks():
    # p0 never hears p1's requests, so the commit never reaches p1.
    lose = _either(
        _lose_first(PriorityCommit, {"p0"}, "p1", {("p0", 1)}),
        _lose_first(CommitRequest, {"p1"}, "p0", {("p0", 1)}, times=1000))
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0")])
    layer = group["p1"].ordering
    retries = layer.max_proposal_retries
    first = _proof_at(net, "p1", ("p0", 2)) + group["p1"].nak_delay
    times = [t for t, _ in _asks(net, "p1")]
    chased = [first + k * layer.proposal_timeout for k in range(retries)]
    assert times[:retries] == pytest.approx(chased)
    # After the chase the fallback alone asks, twice commit_repair_delay apart.
    assert times[retries] - times[retries - 1] == 2 * layer.commit_repair_delay
    assert layer.layer_metrics()["commit_chases_abandoned"] == 1
    assert layer._chasing == {}
    assert ("p0", 1) not in [r.msg_id for r in group["p1"].delivered]


def test_a_second_proof_during_a_chase_starts_no_second_chase():
    # p1's first four requests go unheard.  The proof of (p0, 3) lands
    # while the chase is live and draws one fresh-proof ask, but the chase
    # keeps its own timing and no second chain of asks starts.
    lose = _either(
        _lose_first(PriorityCommit, {"p0"}, "p1", {("p0", 1)}),
        _lose_first(CommitRequest, {"p1"}, "p0", {("p0", 1)}, times=4))
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0"), (40.0, "p0")])
    layer = group["p1"].ordering
    nak_delay = group["p1"].nak_delay
    timeout = layer.proposal_timeout
    first = _proof_at(net, "p1", ("p0", 2)) + nak_delay
    fresh = _proof_at(net, "p1", ("p0", 3)) + nak_delay
    chased = [first + k * timeout for k in range(4)]
    assert chased[1] + 2 * nak_delay <= fresh < chased[2]  # a re-ask, mid-chase
    assert _asks(net, "p1") == [(t, ("p0", 1)) for t in sorted(chased + [fresh])]
    delivered_at = {r.msg_id: r.delivered_at for r in group["p1"].delivered}
    assert delivered_at[("p0", 1)] == chased[-1] + 2 * LATENCY


def test_a_commit_late_behind_its_predecessor_draws_no_request():
    # The second message's commit waits for the first's re-solicited
    # proposal: it is late, not lost, and nobody asks for it.
    lose = _lose_first(PriorityProposal, {"p2"}, "p0", {("p0", 1)})
    group, net = _scripted(lose, [(1.0, "p0"), (2.0, "p0"), (3.0, "p0")])
    assert net.sent(CommitRequest) == []
    for member in group.values():
        assert [r.msg_id for r in member.delivered] == [("p0", 1), ("p0", 2), ("p0", 3)]
    late = group["p1"].ordering.hold_log
    assert max(duration for _, duration in late) > 4 * _nak_delay(group["p1"])


def test_the_fallback_asks_only_for_each_senders_lowest_open_seq():
    # Every commit from p0 and p2 to p1 is lost once, so p1 sees no proof
    # and the fallback timer does all the asking.
    wanted = {(pid, seq) for pid in ("p0", "p2") for seq in (1, 2, 3)}
    lose = _lose_first(PriorityCommit, {"p0", "p2"}, "p1", wanted)
    sends = [(1.0 + k, pid) for k in range(3) for pid in ("p0", "p2")]
    group, net = _scripted(lose, sends)
    asks = [(t, p.msg_id) for t, src, _, p in net.sent(CommitRequest) if src == "p1"]
    assert len(group["p1"].delivered) == 6
    for sender in ("p0", "p2"):
        mine = [(t, seq) for t, (pid, seq) in asks if pid == sender]
        assert [seq for _, seq in mine] == [1, 2, 3]
        times = [t for t, _ in mine]
        assert times == sorted(set(times))  # one at a time, lowest first


def test_the_deadline_is_four_nak_delays_until_a_round_is_measured():
    group, _ = _scripted(None, [])
    layer = group["p0"].ordering
    nak_delay = group["p0"].nak_delay
    assert layer.slowest_round == 0.0
    assert layer.proposal_timeout == 4 * nak_delay
    # 1.25 x the slowest round, clamped to [nak_delay, 4 x nak_delay]
    for slowest, deadline in ((0.1, nak_delay), (6.0, 7.5), (100.0, 4 * nak_delay)):
        layer.slowest_round = slowest
        assert layer.proposal_timeout == deadline


def test_a_lost_proposal_is_re_solicited_one_measured_round_after_the_send():
    lose = _lose_first(PriorityProposal, {"p2"}, "p0", {("p0", 2)})
    group, net = _scripted(lose, [(1.0, "p0"), (50.0, "p0")])
    layer = group["p0"].ordering
    requests = [(t, dst, p.msg.msg_id) for t, _, dst, p in net.sent(ProposalRequest)]
    assert requests == [(50.0 + 1.25 * 2 * LATENCY, "p2", ("p0", 2))]
    # The second round took the deadline plus a round trip, but it was
    # re-solicited, so only the first, clean round is a sample.
    assert layer.slowest_round == 2 * LATENCY
    assert layer.proposals_forced == 0
    for member in group.values():
        assert [r.msg_id for r in member.delivered] == [("p0", 1), ("p0", 2)]


def test_a_re_solicited_round_contributes_no_sample():
    lose = _lose_first(PriorityProposal, {"p2"}, "p0", {("p0", 1)})
    group, net = _scripted(lose, [(1.0, "p0")])
    layer = group["p0"].ordering
    nak_delay = group["p0"].nak_delay
    requests = [(t, p.msg.msg_id) for t, _, _, p in net.sent(ProposalRequest)]
    assert requests == [(1.0 + 4 * nak_delay, ("p0", 1))]
    assert layer.slowest_round == 0.0
    assert layer.proposal_timeout == 4 * nak_delay
    assert all(len(m.delivered) == 1 for m in group.values())


def test_a_loss_free_group_on_the_perfbench_link_sends_no_proposal_requests():
    """``sim-total-lossy``'s shape at drop 0: eight members, one multicast
    per unit.  Every member's deadline moves below 4 x nak_delay, and none
    fires."""
    for seed in (1000, 1001, 1002):
        sim = Simulator(seed=seed)
        net = RecordingNetwork(sim, LinkModel(latency=3.0, jitter=2.0))
        pids = [f"p{i}" for i in range(8)]
        group = build_group(sim, net, pids, ordering="total-agreed")
        for k in range(200):
            sim.call_at(1.0 + k, group[pids[k % 8]].multicast, k)
        sim.run(until=2200.0)
        assert net.sent(ProposalRequest) == [], seed
        for member in group.values():
            assert len(member.delivered) == 200
            assert member.ordering.proposal_timeout < 4 * member.nak_delay


@pytest.fixture
def proposal_requests(monkeypatch):
    """Counts every ``ProposalRequest`` put on any network's wire."""
    sent = []
    send = Network.send

    def counting(self, src, dst, payload, size=None):
        if isinstance(payload, ProposalRequest):
            sent.append((src, dst, payload.msg.msg_id))
        return send(self, src, dst, payload, size)

    monkeypatch.setattr(Network, "send", counting)
    return sent


@pytest.mark.parametrize("size", [3, 6, 12, 24])
def test_e07s_agreed_overhead_stays_three_messages_per_peer(size, proposal_requests):
    """E07's link (latency 5, jitter 2: a round trip of up to 14) with its
    own seed and schedule: data, proposals and commits, N - 1 each."""
    measured = _measure(0, "total-agreed", size, 6)
    assert proposal_requests == []
    assert measured["net_msgs_per_multicast"] == 3 * (size - 1)


@pytest.mark.parametrize("theo_latency", [3.0, 15.0])
def test_e04s_asymmetric_links_draw_no_proposal_requests(theo_latency, proposal_requests):
    """E04's theoretical pricer sends on slow links and hears on fast ones.
    At these lags a round fits in 4 x nak_delay, so nothing is
    re-solicited; at E04's longer lags (25, 40) every round outlasts the
    clamp's upper bound and is re-solicited at it, as before the deadline
    was measured."""
    run_trading(seed=0, ordering="total-agreed", ticks=8, theo_latency=theo_latency)
    assert proposal_requests == []


def _commit_lost_to_p2():
    """p0 multicasts once to p0..p2 and its commit to p2 is lost.  At 15,
    before any gossip tick, p0 has committed and p1 applied the commit."""
    def lose(src, dst, payload):
        return isinstance(payload, PriorityCommit) and dst == "p2"

    group, _ = _scripted(lose, [(1.0, "p0")], until=15.0)
    return group


def _stability(member):
    return member.stack.layer("stability")


@pytest.mark.parametrize("arrives_as, releases", [
    (PriorityCommit, True), (ForcedCommit, False), ("view install", False),
])
def test_applying_a_commit_releases_its_message_only_if_every_member_proposed(
        arrives_as, releases):
    mid = ("p0", 1)
    group = _commit_lost_to_p2()
    # No ack has reached the matrix yet: p0 and p1 let the message go on
    # the commit alone.
    for pid in ("p0", "p1"):
        assert mid not in _stability(group[pid]).buffer
        assert _stability(group[pid]).matrix.frontier[mid[0]] < mid[1]
    stability, layer = _stability(group["p2"]), group["p2"].ordering
    assert mid in stability.buffer
    moves = stability.matrix.moves
    key = group["p0"].ordering._commit_values[mid]
    if arrives_as == "view install":
        layer.on_view_install({"commits": {mid: key}}, {})
    else:
        layer.on_control("p0", arrives_as(group="group", sender="p0", msg_id=mid,
                                          priority=key[0], tiebreak=key[1]))
    assert layer._commit_values[mid] == key
    assert (mid in stability.buffer) is not releases
    assert (mid in layer._forced) is not releases
    assert stability.matrix.moves == moves  # no row written


def test_a_released_message_is_not_buffered_again():
    mid = ("p0", 1)
    group = _commit_lost_to_p2()
    member = group["p2"]
    stability, dedup = _stability(member), member.stack.layer("dedup")
    msg = stability.buffer[mid]
    key = group["p0"].ordering._commit_values[mid]
    member.ordering.on_control("p0", PriorityCommit(group="group", sender="p0", msg_id=mid,
                                                    priority=key[0], tiebreak=key[1]))
    duplicates = dedup.duplicates
    assert member.stack.receive_data("p1", msg.repair_copy()) is None
    assert dedup.duplicates == duplicates + 1
    for each in group.values():
        assert _stability(each).buffer == {}
        assert _stability(each).buffered_bytes() == 0
        assert not any(_stability(each)._held.values())


def test_a_forced_commit_keeps_the_message_for_the_silent_members_nak():
    """p0 forces the commit of its message one proposal timeout after the
    send (no re-solicits) without p2, which lost the message and then the
    forced commit.  p0 and p1 keep the message, so p2's NAK, sent once
    gossip reveals the message, is served; p2 then asks p0 for the commit
    and is answered with a ForcedCommit again.  Had p0 and p1 released the
    message, p2's NAK would find no copy and p2 would never deliver."""
    mid = ("p0", 1)
    forced_to = []

    def lose(src, dst, payload):
        if isinstance(payload, ForcedCommit):
            forced_to.append(dst)
            return dst == "p2" and forced_to.count("p2") == 1
        return dst == "p2" and isinstance(payload, DataMessage) and not forced_to

    def prepare(group):
        group["p0"].ordering.max_proposal_retries = 0

    group, net = _scripted(lose, [(1.0, "p0")], prepare, until=26.0)
    forced_at = net.sent(ForcedCommit)[0][0]
    assert group["p0"].ordering.proposals_forced == 1
    for pid in ("p0", "p1"):
        assert mid in _stability(group[pid]).buffer
        assert mid in group[pid].ordering._forced
    group["p0"].sim.run(until=400.0)
    assert all(m.delivered_payloads() == [0] for m in group.values())
    naks = [t for t, src, _, p in net.sent(Nak) if src == "p2" and mid in p.wanted]
    repairs = [t for t, _, dst, p in net.sent(DataMessage) if dst == "p2" and p.retransmit]
    assert naks and repairs and min(naks) > forced_at and min(repairs) > min(naks)
    commits_to_p2 = [type(p) for _, _, dst, p in net.sent(PriorityCommit) if dst == "p2"]
    assert commits_to_p2 == [ForcedCommit, ForcedCommit]  # lost, then the answer
    for member in group.values():
        assert _stability(member).buffer == {}  # stable, by the acks
