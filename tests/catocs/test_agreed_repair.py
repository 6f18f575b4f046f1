"""Agreed-order repair traffic in whole groups: who asks for a commit and
when, the order a sender commits in, and what per-message agreement state is
left once a lossy run drains."""

from repro.catocs import build_group
from repro.catocs.messages import CommitRequest, PriorityCommit, PriorityProposal
from repro.sim import LinkModel, Network, Simulator

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
    group = build_group(sim, net, PIDS, ordering="total-agreed")
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
        orders = {tuple(r.msg_id for r in m.delivered) for m in group.values()}
        assert len(orders) == 1 and len(next(iter(orders))) == 60


def test_a_drained_lossy_run_leaves_no_agreement_state():
    group, _ = _run(seed=33, drop_prob=0.05)
    for member in group.values():
        layer = member.ordering
        assert layer._pending == {} and layer._heap == []
        assert layer._proposals == {} and layer._retries == {}
        assert layer._asked == {} and layer._open == {} and layer._ready == set()
        assert len(layer._commit_values) == 60  # kept to answer requests
        assert layer.layer_metrics()["proposals_forced"] == 0


def _lose_first(kind, src, dst, wanted):
    """A ``lose`` predicate: the first ``kind`` packet from ``src`` to ``dst``
    for each msg_id in ``wanted``."""
    lost = set()

    def lose(s, d, payload):
        mid = getattr(payload, "msg_id", None)
        if (isinstance(payload, kind) and s in src and d == dst
                and mid in wanted and mid not in lost):
            lost.add(mid)
            return True
        return False
    return lose


def _scripted(lose, sends):
    """Three members on fixed-latency links; ``sends`` is ``(time, pid)``."""
    sim = Simulator(seed=0)
    net = RecordingNetwork(sim, LinkModel(latency=LATENCY), lose)
    group = build_group(sim, net, PIDS[:3], ordering="total-agreed")
    for k, (at, pid) in enumerate(sends):
        sim.call_at(at, group[pid].multicast, k)
    sim.run(until=400.0)
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
