"""Property-based tests: delivery-order guarantees under random schedules.

Hypothesis drives random workloads (who multicasts when, reaction chains,
link jitter, loss) and the properties assert the CATOCS contracts:

- causal delivery never inverts happens-before (checked against the vector
  timestamps actually attached to messages);
- total-order disciplines deliver identical sequences at every member;
- atomicity: with repair enabled, every member eventually delivers every
  message (fail-free runs).
"""

from typing import Dict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catocs import build_group
from repro.catocs.messages import DataMessage
from repro.ordering.happens_before import is_causal_delivery_order
from repro.sim import LinkModel, Network, Simulator

schedule_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # sender index
        st.floats(min_value=0.0, max_value=200.0),  # send time
        st.booleans(),                           # triggers a reaction?
    ),
    min_size=1,
    max_size=12,
)

PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_workload(ordering: str, schedule, seed: int, drop: float,
                 piggyback: bool = False):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=6.0, jitter=10.0, drop_prob=drop))
    pids = [f"p{i}" for i in range(4)]
    members = build_group(sim, net, pids, ordering=ordering,
                          nak_delay=8.0, ack_period=25.0,
                          piggyback_causal=piggyback)
    vc_of: Dict[object, object] = {}

    def capture(member):
        original = member.transport.broadcast

        def wrapper(msg: DataMessage):
            original(msg)
            if msg.vc is not None:
                vc_of[msg.msg_id] = msg.vc  # a stamp is never written after stamping
        member.transport.broadcast = wrapper

    for member in members.values():
        capture(member)

    reactor = members[pids[0]]

    def maybe_react(src, payload, msg):
        if isinstance(payload, dict) and payload.get("react") and src != reactor.pid:
            reactor.multicast({"kind": "reaction", "to": payload["uid"]})

    reactor.on_deliver = maybe_react

    for uid, (sender_index, at, react) in enumerate(schedule):
        pid = pids[sender_index]
        sim.call_at(at + 0.001 * uid, members[pid].multicast,
                    {"kind": "tick", "uid": uid, "react": react})
    # Horizon: generous multiple of the worst repair chain (NAK retries
    # double from 8), kept small because periodic gossip timers otherwise
    # dominate the run time.
    sim.run(until=2_500)
    return members, vc_of


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_causal_delivery_never_inverts_happens_before(schedule, seed):
    members, vc_of = run_workload("causal", schedule, seed, drop=0.1)
    for member in members.values():
        stamps = [vc_of[r.msg_id] for r in member.delivered if r.msg_id in vc_of]
        assert is_causal_delivery_order(stamps), member.pid


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_piggyback_causal_never_inverts_happens_before(schedule, seed):
    members, vc_of = run_workload("causal", schedule, seed, drop=0.12,
                                  piggyback=True)
    for member in members.values():
        stamps = [vc_of[r.msg_id] for r in member.delivered if r.msg_id in vc_of]
        assert is_causal_delivery_order(stamps), member.pid
    sets = [frozenset(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(sets)) == 1  # atomicity holds with attachments too


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_atomicity_every_member_delivers_everything(schedule, seed):
    members, _ = run_workload("causal", schedule, seed, drop=0.15)
    sets = [frozenset(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(sets)) == 1
    total_sent = sum(m.multicasts_sent for m in members.values())
    assert all(len(s) == total_sent for s in sets)


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_hybrid_causal_never_inverts_happens_before(schedule, seed):
    # Third causal implementation: sender retention + bounded receiver
    # buffer (no stability layer at all), same delivery contract.
    members, vc_of = run_workload("hybrid-causal", schedule, seed, drop=0.1)
    for member in members.values():
        stamps = [vc_of[r.msg_id] for r in member.delivered if r.msg_id in vc_of]
        assert is_causal_delivery_order(stamps), member.pid


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_hybrid_causal_atomicity_under_loss(schedule, seed):
    # Without ack vectors or gossip, lost *final* messages leave no seq gap;
    # the sender-side retention resend is what closes them.
    members, _ = run_workload("hybrid-causal", schedule, seed, drop=0.15)
    sets = [frozenset(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(sets)) == 1
    total_sent = sum(m.multicasts_sent for m in members.values())
    assert all(len(s) == total_sent for s in sets)


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_batched_causal_preserves_causal_contract(schedule, seed):
    # The batching layer must be delivery-transparent: same causal
    # guarantees and atomicity with envelopes on the wire.
    members, vc_of = run_workload("batched-causal", schedule, seed, drop=0.1)
    for member in members.values():
        stamps = [vc_of[r.msg_id] for r in member.delivered if r.msg_id in vc_of]
        assert is_causal_delivery_order(stamps), member.pid
    sets = [frozenset(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(sets)) == 1


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_sequencer_total_order_identical_everywhere_under_loss(schedule, seed):
    members, vc_of = run_workload("total-seq", schedule, seed, drop=0.08)
    orders = [tuple(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(orders)) == 1, orders
    # and the shared order is causal
    stamps = [vc_of[mid] for mid in orders[0] if mid in vc_of]
    assert is_causal_delivery_order(stamps)


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_agreed_total_order_identical_everywhere_lossless(schedule, seed):
    members, _ = run_workload("total-agreed", schedule, seed, drop=0.0)
    orders = [tuple(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(orders)) == 1, orders


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_fifo_per_sender_order_holds_under_loss(schedule, seed):
    members, _ = run_workload("fifo", schedule, seed, drop=0.12)
    for member in members.values():
        seen: Dict[str, int] = {}
        for record in member.delivered:
            sender, seq = record.msg_id
            assert seq == seen.get(sender, 0) + 1, (member.pid, record.msg_id)
            seen[sender] = seq
