"""Tests for the footnote-4 ``piggyback`` layer."""

from repro.catocs import build_group
from repro.catocs.messages import DataMessage
from repro.sim import EventTrace, LinkModel, Network, Simulator
from tests.catocs.test_check import assert_judged


PIGGYBACK_STACK = "dedup|stability|piggyback|causal"


def build(seed=0, drop=0.0, ordering=PIGGYBACK_STACK):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=3.0, drop_prob=drop))
    members = build_group(sim, net, ["a", "b", "c"], ordering=ordering,
                          nak_delay=10.0, ack_period=30.0, trace=EventTrace())
    return sim, net, members


def test_attachments_carry_causal_predecessors():
    sim, net, members = build()
    captured = []
    original = members["a"].send_peers

    def sniff(payload):
        if isinstance(payload, DataMessage):
            captured.append(payload)
        return original(payload)

    members["a"].send_peers = sniff
    # a sends m1 then m2 while m1 is still unstable: m2 carries a copy of m1
    sim.call_at(1.0, members["a"].multicast, "m1")
    sim.call_at(2.0, members["a"].multicast, "m2")
    sim.run(until=500)
    assert captured[0].attached == []
    attached_ids = [m.msg_id for m in captured[1].attached]
    assert ("a", 1) in attached_ids
    assert members["a"].stack.layer("piggyback").piggybacked_bytes > 0


def test_dependent_message_not_delayed_when_dependency_lost():
    # b reacts to a's message; the direct copy of a's message to c is lost.
    # Without piggybacking, c would hold b's reaction until NAK repair;
    # with it, the reaction carries a's message along.
    sim, net, members = build()
    net.set_link("a", "c", LinkModel(latency=5.0, drop_prob=1.0))

    def react(src, payload, msg):
        if payload == "cause":
            members["b"].multicast("effect")

    members["b"].on_deliver = react
    sim.call_at(1.0, members["a"].multicast, "cause")
    sim.run(until=40)  # well before any NAK repair could fire
    got = members["c"].delivered_payloads()
    assert got == ["cause", "effect"]


def test_without_piggyback_same_scenario_waits_for_repair():
    sim, net, members = build(ordering="causal")
    net.set_link("a", "c", LinkModel(latency=5.0, drop_prob=1.0))

    def react(src, payload, msg):
        if payload == "cause":
            members["b"].multicast("effect")

    members["b"].on_deliver = react
    sim.call_at(1.0, members["a"].multicast, "cause")
    sim.run(until=40)
    assert members["c"].delivered_payloads() == []  # held: dependency missing
    sim.run(until=2000)  # repair path eventually supplies it
    assert members["c"].delivered_payloads() == ["cause", "effect"]


def test_causal_order_preserved_with_piggyback_under_loss():
    for seed in range(5):
        sim, net, members = build(seed=seed, drop=0.15)

        def react(src, payload, msg):
            if payload == "cause":
                members["b"].multicast("effect")

        members["b"].on_deliver = react
        sim.call_at(1.0, members["a"].multicast, "cause")
        sim.call_at(3.0, members["c"].multicast, "noise")
        sim.run(until=3000)
        assert_judged(members, PIGGYBACK_STACK, 3)  # cause, b's effect and noise


def test_attachments_deduplicated_at_receiver():
    sim, net, members = build()
    sim.call_at(1.0, members["a"].multicast, "m1")
    sim.call_at(2.0, members["a"].multicast, "m2")
    sim.call_at(3.0, members["a"].multicast, "m3")
    sim.run(until=1000)
    for member in members.values():
        payloads = member.delivered_payloads()
        assert payloads == ["m1", "m2", "m3"], payloads


def test_without_a_stability_layer_nothing_is_attached():
    sim, net, members = build(ordering="dedup|piggyback|causal")
    captured = []
    original = members["a"].send_peers

    def sniff(payload):
        if isinstance(payload, DataMessage):
            captured.append(payload)
        return original(payload)

    members["a"].send_peers = sniff
    sim.call_at(1.0, members["a"].multicast, "m1")
    sim.call_at(2.0, members["a"].multicast, "m2")
    sim.run(until=500)
    assert [m.attached for m in captured] == [None, None]
    assert members["a"].stack.layer("piggyback").piggybacked_bytes == 0
    assert_judged(members, "causal", 2)
