"""The composable-stack machinery: registry, spec resolution, composition."""

import pytest

from repro.catocs import build_group
from repro.catocs.ordering_layers import OrderingLayer
from repro.catocs.stack import (
    DISCIPLINES,
    LAYER_REGISTRY,
    ProtocolLayer,
    discipline_override,
    register_layer,
    resolve_spec,
    set_discipline_override,
)
from repro.sim import LinkModel, Network, Simulator


def _group(ordering="causal", seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0))
    members = build_group(sim, net, ["a", "b", "c"], ordering=ordering)
    return sim, net, members


def test_every_discipline_alias_resolves():
    for alias, spec in DISCIPLINES.items():
        names = resolve_spec(alias)
        assert names == tuple(spec.split("|"))
        assert all(n in LAYER_REGISTRY for n in names)


def test_every_registered_layer_is_a_layer_of_its_kind():
    for cls in LAYER_REGISTRY.values():
        assert issubclass(cls, ProtocolLayer), cls
        assert cls.kind != "ordering" or issubclass(cls, OrderingLayer), cls


def test_explicit_spec_composes_named_layers():
    _, _, members = _group(ordering="dedup|stability|causal")
    stack = members["a"].stack
    assert [layer.name for layer in stack.layers] == ["dedup", "stability", "causal"]
    assert stack.ordering.name == "causal"
    assert stack.layer("stability") is stack.layers[1]
    assert stack.layer("nope") is None


def test_unknown_discipline_rejected():
    with pytest.raises(ValueError, match="unknown discipline"):
        resolve_spec("bogus")


def test_unknown_layer_in_spec_rejected():
    with pytest.raises(ValueError, match="unknown layers"):
        resolve_spec("dedup|bogus|causal")


def test_spec_requires_ordering_on_top():
    with pytest.raises(ValueError, match="ordering layer, on top"):
        resolve_spec("causal|dedup")
    with pytest.raises(ValueError, match="ordering layer, on top"):
        resolve_spec("dedup|stability")


def test_duplicate_layers_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        resolve_spec("dedup|dedup|causal")


def test_discipline_override_forces_stack_everywhere():
    set_discipline_override("total-seq")
    try:
        assert discipline_override() == "total-seq"
        _, _, members = _group(ordering="causal")
        assert members["a"].ordering_name == "total-seq"
    finally:
        set_discipline_override(None)
    _, _, members = _group(ordering="causal")
    assert members["a"].ordering_name == "causal"


def test_discipline_override_validates_eagerly():
    with pytest.raises(ValueError):
        set_discipline_override("no-such-discipline")
    assert discipline_override() is None


def test_stack_metrics_published_per_layer():
    sim, _, members = _group()
    members["a"].multicast("x")
    sim.run(until=200)
    gauges = sim.metrics.snapshot()["gauges"]
    assert any(key.startswith("stack.dedup.retransmissions") for key in gauges)
    assert any(key.startswith("stack.stability.buffered") for key in gauges)
    assert any(key.startswith("stack.causal.pending") for key in gauges)


def test_custom_layer_registers_and_runs():
    class CountingLayer(ProtocolLayer):
        name = "counting"
        kind = "transport"

        def __init__(self, member):
            super().__init__(member)
            self.sent = 0
            self.received = 0

        def send_down(self, msg):
            self.sent += 1

        def receive_up(self, src, msg):
            self.received += 1
            return msg

        def layer_metrics(self):
            return {"sent": self.sent, "received": self.received}

    register_layer(CountingLayer)
    try:
        sim, _, members = _group(ordering="dedup|counting|stability|causal")
        members["a"].multicast("x")
        members["b"].multicast("y")
        sim.run(until=300)
        for member in members.values():
            layer = member.stack.layer("counting")
            assert layer.sent == member.multicasts_sent
            assert layer.received >= 1
            assert [r.payload for r in member.delivered].count("x") == 1
    finally:
        LAYER_REGISTRY.pop("counting", None)


def test_legacy_and_stack_paths_agree():
    """ordering='causal' and the spelled-out spec produce identical runs."""
    def run(**kwargs):
        sim, _, members = _group(seed=42, **kwargs)
        for i in range(5):
            sim.call_at(10.0 * (i + 1), members["abc"[i % 3]].multicast, i)
        sim.run(until=500)
        return {
            pid: [r.msg_id for r in m.delivered] for pid, m in members.items()
        }

    assert run(ordering="causal") == run(ordering="dedup|stability|causal")
