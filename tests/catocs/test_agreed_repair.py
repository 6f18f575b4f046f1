"""Agreed-order repair traffic in whole groups: who asks for a commit, and
what per-message agreement state is left once a lossy run drains."""

from repro.catocs import build_group
from repro.catocs.messages import CommitRequest
from repro.sim import LinkModel, Network, Simulator

PIDS = ["p0", "p1", "p2", "p3", "p4"]


class RecordingNetwork(Network):
    """Keeps every ``(src, dst, payload)`` put on the wire."""

    def __init__(self, sim, link):
        super().__init__(sim, link)
        self.log = []

    def send(self, src, dst, payload, size=None):
        self.log.append((src, dst, payload))
        return super().send(src, dst, payload, size)


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
        assert layer._asked == {}
        assert len(layer._commit_values) == 60  # kept to answer requests
        assert layer.layer_metrics()["proposals_forced"] == 0
