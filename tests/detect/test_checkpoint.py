"""Tests for periodic coordinated checkpointing."""

from repro.detect import CheckpointCoordinator, CheckpointParticipant
from repro.detect.checkpoint import CheckpointAck
from repro.sim import FailureInjector, LinkModel, Network, Simulator


def build(seed=0, n=3, period=50.0):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=4.0, jitter=2.0))
    state = {f"p{i}": i * 10 for i in range(n)}
    participants = [
        CheckpointParticipant(sim, net, f"p{i}",
                              state_fn=(lambda pid=f"p{i}": state[pid]))
        for i in range(n)
    ]
    coordinator = CheckpointCoordinator(sim, net, "coord",
                                        participants=[p.pid for p in participants],
                                        period=period)
    return sim, net, state, participants, coordinator


def test_periodic_checkpoints_complete_with_all_states():
    sim, net, state, participants, coordinator = build()
    sim.run(until=280)
    assert len(coordinator.completed) == 5  # t=50,100,150,200,250
    for record in coordinator.completed:
        assert record.states == {"p0": 0, "p1": 10, "p2": 20}
        assert record.duration > 0


def test_checkpoint_captures_evolving_state():
    sim, net, state, participants, coordinator = build(period=0.0)
    sim.call_at(10.0, coordinator.take_checkpoint)
    sim.call_at(20.0, state.__setitem__, "p1", 999)
    sim.call_at(30.0, coordinator.take_checkpoint)
    sim.run(until=500)
    assert coordinator.completed[0].states["p1"] == 10
    assert coordinator.completed[1].states["p1"] == 999


def test_message_cost_is_2n_per_checkpoint():
    sim, net, state, participants, coordinator = build(n=4, period=0.0)
    sim.call_at(10.0, coordinator.take_checkpoint)
    sim.run(until=500)
    assert coordinator.protocol_messages == 2 * 4  # requests + completes


def test_epoch_advances_on_participants():
    sim, net, state, participants, coordinator = build(period=40.0)
    sim.run(until=130)
    assert all(p.epoch == 3 for p in participants)
    assert all(p.checkpoints_taken == 3 for p in participants)


def test_crashed_participant_stalls_that_checkpoint_only():
    sim, net, state, participants, coordinator = build(period=0.0)
    FailureInjector(sim, net).crash_at(5.0, "p2")
    sim.call_at(10.0, coordinator.take_checkpoint)
    sim.run(until=500)
    assert coordinator.completed == []  # blocked on the dead participant


def test_application_traffic_reaches_on_app_and_protocol_traffic_does_not():
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=1.0))
    seen = []
    participant = CheckpointParticipant(sim, net, "p0", state_fn=lambda: 0,
                                        on_app=lambda src, payload: seen.append((src, payload)))
    peer = CheckpointParticipant(sim, net, "p1", state_fn=lambda: 1)
    coordinator = CheckpointCoordinator(sim, net, "coord", participants=["p0", "p1"],
                                        period=0.0)
    sim.call_at(1.0, peer.send, "p0", "app-data")
    sim.call_at(2.0, coordinator.take_checkpoint)
    sim.call_at(20.0, lambda: peer.send("p0", ("tagged", participant.epoch)))
    sim.run(until=100)
    assert len(coordinator.completed) == 1
    assert seen == [("p1", "app-data"), ("p1", ("tagged", 1))]
    assert participant.epoch == 1 and participant.checkpoints_taken == 1


def test_coordinator_ignores_late_acks_and_non_ack_messages():
    sim, net, state, participants, coordinator = build(period=0.0)
    records = []
    coordinator.on_checkpoint = records.append
    sim.call_at(10.0, coordinator.take_checkpoint)
    sim.run(until=100)
    assert len(coordinator.completed) == 1
    cost = coordinator.protocol_messages
    # Every participant's ack again for the finished checkpoint, one for a
    # checkpoint never taken, and a message that is no ack at all.
    for pid in ("p0", "p1", "p2"):
        sim.call_at(101.0, net.send, pid, "coord", CheckpointAck(checkpoint_id=1, pid=pid, state=-1))
    sim.call_at(101.0, net.send, "p0", "coord", CheckpointAck(checkpoint_id=9, pid="p0", state=-1))
    sim.call_at(101.0, net.send, "p0", "coord", "not-an-ack")
    sim.run(until=200)
    assert len(coordinator.completed) == 1 and records == coordinator.completed
    assert coordinator.completed[0].states == {"p0": 0, "p1": 10, "p2": 20}
    assert coordinator.protocol_messages == cost
