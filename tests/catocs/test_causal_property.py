"""Property-based test: every stack spec keeps its delivery promise.

Hypothesis drives random workloads (who multicasts when, reaction chains,
link jitter, 0-15% loss) over every discipline alias and the piggyback
stack.  :func:`repro.check.judge` decides each run against the spec's
lattice claims, and at the horizon every hold-back structure has drained.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catocs import build_group
from repro.catocs.stack import DISCIPLINES
from repro.check import judge
from repro.sim import EventTrace, LinkModel, Network, Simulator

SPECS = sorted(DISCIPLINES) + ["dedup|stability|piggyback|causal"]

#: layer attributes that hold messages back; NESTED ones map a key to a
#: container, and hold something only if one of those is non-empty
HOLD_BACK = ("buffer", "_held", "_ahead", "_nak_pending", "_queue", "_fast",
             "_queued", "_pending", "_heap", "_retained", "_stubs")
NESTED = {"_held", "_ahead", "_queued"}

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


def run_workload(ordering: str, schedule, seed: int, drop: float):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=6.0, jitter=10.0, drop_prob=drop))
    pids = [f"p{i}" for i in range(4)]
    trace = EventTrace()
    members = build_group(sim, net, pids, ordering=ordering,
                          nak_delay=8.0, ack_period=25.0, trace=trace)
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
    return members, trace


def held_back(member):
    """Each hold-back structure of ``member``'s stack still holding something."""
    held = {}
    for layer in member.stack.layers:
        for attr in HOLD_BACK:
            items = getattr(layer, attr, None)
            if items is not None and attr in NESTED:
                items = [inner for inner in items.values() if inner]
            if items:
                held[f"{layer.name}.{attr}"] = items
    return held


@pytest.mark.parametrize("spec", SPECS)
@given(schedule=schedule_strategy, seed=st.integers(0, 1000),
       drop=st.sampled_from([0.0, 0.10, 0.15]))
@PROPERTY_SETTINGS
def test_every_spec_meets_its_guarantee(spec, schedule, seed, drop):
    members, trace = run_workload(spec, schedule, seed, drop)
    verdict = judge(trace, members, spec)
    assert verdict.ok, verdict
    for member in members.values():
        assert not held_back(member), (member.pid, held_back(member))


def order_faults(members, trace, spec):
    """The fifo/causal faults the oracle finds in a run of ``spec``."""
    verdict = judge(trace, members, spec)
    return [f for f in verdict.faults if f.reason in ("fifo", "causal")]


def assert_atomic(members):
    sets = [frozenset(r.msg_id for r in m.delivered) for m in members.values()]
    assert len(set(sets)) == 1
    total_sent = sum(m.multicasts_sent for m in members.values())
    assert all(len(s) == total_sent for s in sets)


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_causal_delivery_never_inverts_happens_before(schedule, seed):
    members, trace = run_workload("causal", schedule, seed, drop=0.1)
    assert not order_faults(members, trace, "causal")


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_atomicity_every_member_delivers_everything(schedule, seed):
    members, _ = run_workload("causal", schedule, seed, drop=0.15)
    assert_atomic(members)


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_hybrid_causal_never_inverts_happens_before(schedule, seed):
    # Third causal implementation: sender retention + bounded receiver
    # buffer (no stability layer at all), same delivery contract.
    members, trace = run_workload("hybrid-causal", schedule, seed, drop=0.1)
    assert not order_faults(members, trace, "hybrid-causal")


@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_hybrid_causal_atomicity_under_loss(schedule, seed):
    # Without ack vectors or gossip, lost *final* messages leave no seq gap;
    # the sender-side retention resend is what closes them.
    members, _ = run_workload("hybrid-causal", schedule, seed, drop=0.15)
    assert_atomic(members)
