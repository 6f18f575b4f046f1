"""Edge-case coverage across modules: the small paths nothing else hits."""


from repro.catocs import build_group
from repro.catocs.member import _label
from repro.sim import LinkModel, Network, Simulator
from repro.sim.network import estimate_size
from repro.txn import Transaction, TransactionCoordinator
from tests.ordering.dict_clock import VectorClock


class _PlainObject:
    def __init__(self):
        self.a = 1
        self.b = "xy"


def test_estimate_size_generic_object_uses_dict():
    assert estimate_size(_PlainObject()) == 8 + (8 + 1 + 8) + (1 + 2)


def test_vector_clock_gt_ge():
    # The dict clock oracle's strict relations (the dense clock defines only
    # == and <=; happens_before.compare derives the rest from them).
    lo = VectorClock({"p": 1})
    hi = VectorClock({"p": 2})
    assert hi > lo and hi >= lo and hi >= hi.copy()
    assert not lo > hi


def test_label_shortens_long_payloads_and_prefers_kind():
    assert _label({"kind": "update", "x": 1}) == "update"
    assert _label({"label": "L"}) == "L"
    long = _label("y" * 100)
    assert len(long) == 30 and long.endswith("~")


def test_empty_transaction_commits_immediately():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=2.0))
    coordinator = TransactionCoordinator(sim, net, "co")
    done = []
    sim.call_at(1.0, coordinator.submit, Transaction(ops=[], on_done=done.append))
    sim.run(until=100)
    assert done and done[0].status == "committed"
    assert done[0].latency == 0.0


def test_abort_unknown_txn_returns_false():
    sim = Simulator()
    net = Network(sim, LinkModel())
    coordinator = TransactionCoordinator(sim, net, "co")
    assert coordinator.abort_txn("nope") is False


def test_member_metrics_include_ordering_fields():
    sim = Simulator()
    net = Network(sim, LinkModel(latency=3.0))
    members = build_group(sim, net, ["a", "b"], ordering="causal")
    sim.call_at(1.0, members["a"].multicast, "m")
    sim.run(until=200)
    metrics = members["b"].metrics()
    assert metrics["ordering"] == "causal"
    assert metrics["delivered"] == 1
    assert metrics["pending"] == 0
    assert metrics["suppressed_time"] == 0


def test_group_of_one_delivers_locally():
    sim = Simulator()
    net = Network(sim, LinkModel())
    members = build_group(sim, net, ["solo"], ordering="causal")
    sim.call_at(1.0, members["solo"].multicast, "note-to-self")
    sim.run(until=50)
    assert members["solo"].delivered_payloads() == ["note-to-self"]


def test_total_order_group_of_one():
    sim = Simulator()
    net = Network(sim, LinkModel())
    members = build_group(sim, net, ["solo"], ordering="total-seq")
    sim.call_at(1.0, members["solo"].multicast, "x")
    sim.run(until=50)
    assert members["solo"].delivered_payloads() == ["x"]


def test_network_partition_default_group_zero():
    sim = Simulator()
    net = Network(sim, LinkModel())
    from repro.sim import Process

    Process(sim, net, "in1")
    Process(sim, net, "out")
    net.partition({"isolated"})  # nobody named: everyone stays in group 0
    assert net.connected("in1", "out")
