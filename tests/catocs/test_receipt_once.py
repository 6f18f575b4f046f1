"""A causal receipt does its per-message work once: the invariants it rests on.

*Size once.*  The first stability buffer that holds a ``DataMessage``
records its size on the object, and every later holder reuses it
(``DataMessage._size``).  That is right only while nothing writes a field
after the sender buffers, so every buffered message's recorded size must
equal what a fresh copy of it costs, under loss (repair copies), under a
crash and a view change, for every discipline alias and the piggyback
stack.  A size taken before ``send_down`` (the causal-graph
instrumentation) is not the recorded one, and a repair copy starts unsized.

*Test once.*  A message goes on ``CausalOrdering._fast`` only after passing
the BSS test, and ``release_next`` pops it without testing again.  The
layers below assert the test at every release; they run over the
property suite's random schedules here and over the failover sweep in
``benchmarks/test_sequencer_failover.py``.
"""

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catocs import build_group
from repro.catocs.member import GroupInstrumentation
from repro.catocs.messages import DataMessage
from repro.catocs.ordering_layers import CausalOrdering
from repro.catocs.stack import DISCIPLINES, LAYER_REGISTRY
from repro.sim import FailureInjector, LinkModel, Network, Simulator
from tests.catocs.test_causal_property import (
    PROPERTY_SETTINGS,
    run_workload,
    schedule_strategy,
)
from tests.catocs.test_ordering_layers import FakeMember, clock, data, released

PIDS = [f"p{i}" for i in range(4)]
PIGGYBACK = "dedup|stability|piggyback|causal"


# -- size once --------------------------------------------------------------------


def fresh_size(msg: DataMessage) -> int:
    """What ``msg`` costs with nothing recorded on it or its attachments."""
    attached = msg.attached and [replace(m) for m in msg.attached]
    return replace(msg, attached=attached).size_bytes()


def watch_buffering(members) -> List[DataMessage]:
    """Check every message each member's stability layer buffers, as it is
    buffered; return them all for a check at the end of the run."""
    seen: List[DataMessage] = []
    for member in members.values():
        stability = member.stack.layer("stability")
        if stability is None:
            continue
        original = stability.buffer_message

        def buffer_message(msg, original=original, stability=stability):
            original(msg)
            assert msg._size == fresh_size(msg), msg.msg_id
            assert stability._entry_bytes[msg.msg_id] == msg._size
            seen.append(msg)

        stability.buffer_message = buffer_message
    return seen


def run_lossy(ordering: str, crash: bool):
    sim = Simulator(seed=11)
    net = Network(sim, LinkModel(latency=5.0, jitter=2.0, drop_prob=0.05))
    members = build_group(sim, net, PIDS, ordering=ordering, with_membership=crash,
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    seen = watch_buffering(members)
    if crash:
        FailureInjector(sim, net).crash_at(150.0, "p0")
    for k in range(40):
        sim.call_at(10.0 + 3 * k, members[PIDS[k % 4]].multicast, {"k": k})
    sim.run(until=3000)
    return members, seen


@pytest.mark.parametrize("crash", [False, True], ids=["loss", "crash+view-change"])
@pytest.mark.parametrize("ordering", sorted(DISCIPLINES) + [PIGGYBACK])
def test_every_buffered_size_is_what_a_fresh_copy_costs(ordering, crash):
    members, seen = run_lossy(ordering, crash)
    for msg in seen:  # and still so at the end: nothing wrote a field since
        assert msg._size == fresh_size(msg), msg.msg_id
    if members["p1"].stack.layer("stability") is None:
        assert not seen  # hybrid-causal: nothing buffers, nothing is recorded
        return
    assert any(msg.retransmit for msg in seen)  # repair copies were buffered
    if crash:
        assert all(m.view_id > 0 for m in members.values() if m.alive)
    if ordering == PIGGYBACK:
        assert any(msg.attached for msg in seen)


def test_a_size_taken_before_send_down_is_not_the_buffered_one():
    # An unstamped stack carries the whole ack vector, which send_down puts
    # on the message after the instrumentation has sized it.
    sim = Simulator(seed=1)
    net = Network(sim, LinkModel(latency=5.0))
    instrumentation = GroupInstrumentation()
    members = build_group(sim, net, PIDS, ordering="fifo",
                          instrumentation=instrumentation)
    early: Dict[object, int] = {}
    on_send = instrumentation.on_send

    def sized_on_send(msg):
        early[msg.msg_id] = msg.size_bytes()
        on_send(msg)

    instrumentation.on_send = sized_on_send
    mid = members["p1"].multicast("x")
    stability = members["p1"].stack.layer("stability")
    msg = stability.buffer[mid]
    assert msg.ack_vector is not None
    assert stability._entry_bytes[mid] == msg.size_bytes() == fresh_size(msg)
    assert early[mid] < msg.size_bytes()
    sim.run(until=50)
    for member in members.values():  # every receiver reuses the sender's figure
        assert member.stack.layer("stability").peak_buffered_bytes == msg._size


def test_a_repair_copy_is_sized_afresh():
    sim = Simulator(seed=1)
    net = Network(sim, LinkModel(latency=5.0))
    members = build_group(sim, net, PIDS, ordering="fifo")
    mid = members["p1"].multicast("x")
    msg = members["p1"].stack.layer("stability").buffer[mid]
    assert msg._size is not None and msg.ack_vector is not None
    copy = msg.repair_copy()
    assert copy._size is None
    assert copy.size_bytes() == fresh_size(copy) < msg.size_bytes()


# -- test once --------------------------------------------------------------------


class _ChecksEveryRelease:
    """Asserts the BSS test for every message the causal filter releases,
    the fast path's included; counts the releases in ``checked``."""

    checked: List[int]

    def _commit_release(self, msg):
        assert self._deliverable(msg), (self.member.pid, msg.msg_id)
        self.checked[0] += 1
        return super()._commit_release(msg)


@contextmanager
def fast_path_checked() -> Iterator[List[int]]:
    """Build every ``CausalOrdering`` discipline as a checking subclass while
    the block runs; yields the count of checked releases."""
    checked = [0]
    saved = dict(LAYER_REGISTRY)
    for name, layer in saved.items():
        if issubclass(layer, CausalOrdering):
            LAYER_REGISTRY[name] = type(f"Checked{layer.__name__}",
                                        (_ChecksEveryRelease, layer),
                                        {"checked": checked})
    try:
        yield checked
    finally:
        LAYER_REGISTRY.clear()
        LAYER_REGISTRY.update(saved)


@pytest.mark.parametrize("ordering,drop", [
    ("causal", 0.1), ("total-seq", 0.08), ("hybrid-causal", 0.1), (PIGGYBACK, 0.12),
])
@given(schedule=schedule_strategy, seed=st.integers(0, 1000))
@PROPERTY_SETTINGS
def test_every_fast_path_release_still_passes_the_bss_test(ordering, drop, schedule, seed):
    with fast_path_checked() as checked:
        members, _ = run_workload(ordering, schedule, seed, drop=drop)
    assert all(type(m.ordering).__name__.startswith("Checked") for m in members.values())
    assert checked[0] > 0


def test_a_join_while_the_fast_path_is_full_delivers_nothing_twice():
    layer = CausalOrdering(FakeMember())
    m1 = data("p1", 1, vc=clock(layer, {"p1": 1}))
    m2 = data("p2", 1, vc=clock(layer, {"p2": 1}))
    m3 = data("p2", 2, vc=clock(layer, {"p2": 2}))
    layer.insert(m1)
    layer.insert(m2)
    assert list(layer._fast) == [m1, m2] and layer._queue == []
    # The view's history covers p1's first message but not p2's.
    layer.on_join({}, {"p1": 1})
    assert list(layer._fast) == [m2] and layer._queue == [m1]
    layer.insert(m3)
    assert released(layer) == [m2, m3]
    assert layer.delivered.as_dict() == {"p1": 1, "p2": 2}
    assert released(layer) == []  # m1 was history: never delivered here
