"""Unit + property tests for the serializability checker, and end-to-end
verification that 2PL histories are serializable."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import LinkModel, Network, Simulator
from repro.txn import ResourceServer, Transaction, TransactionCoordinator
from repro.txn.coordinator import update
from repro.txn.serializability import HistoryRecorder, check_serializable


# -- unit tests of the checker itself -----------------------------------------------


def test_empty_history_serializable():
    assert check_serializable(HistoryRecorder()).serializable


def test_serial_history_serializable():
    h = HistoryRecorder()
    h.record_read("t1", "x", 0)
    h.record_write("t1", "x", 1)
    h.record_read("t2", "x", 1)
    h.record_write("t2", "x", 2)
    verdict = check_serializable(h)
    assert verdict.serializable
    assert ("wr", "t1", "t2") in verdict.edges


def test_lost_update_detected_as_cycle():
    # Both read version 1 and both install over it: classic lost update.
    h = HistoryRecorder()
    h.record_read("t1", "x", 1)
    h.record_write("t1", "x", 2)
    h.record_read("t2", "x", 1)
    h.record_write("t2", "x", 3)
    verdict = check_serializable(h)
    # t2 read v1 -> rw -> t1 (installed v2); t1 read v1 -> rw -> ... t1's
    # read also anti-depends on its own write (skipped); ww t1->t2; and
    # rw t2 -> t1 closes the cycle.
    assert not verdict.serializable
    assert set(verdict.cycle) == {"t1", "t2"}


def test_write_skew_detected():
    # t1 reads y, writes x; t2 reads x, writes y — each missed the other.
    h = HistoryRecorder()
    h.record_read("t1", "y", 0)
    h.record_write("t1", "x", 1)
    h.record_read("t2", "x", 0)
    h.record_write("t2", "y", 1)
    verdict = check_serializable(h)
    assert not verdict.serializable


def test_read_only_snapshot_of_mixed_versions_detected():
    h = HistoryRecorder()
    h.record_write("t1", "x", 1)
    h.record_write("t2", "x", 2)
    h.record_write("t2", "y", 1)
    # t3 saw t2's x but pre-t2 y: t2 -> t3 (wr) and t3 -> t2 (rw): cycle.
    h.record_read("t3", "x", 2)
    h.record_read("t3", "y", 0)
    assert not check_serializable(h).serializable


def test_discard_removes_footprint():
    h = HistoryRecorder()
    h.record_read("t1", "x", 1)
    h.discard("t1")
    assert h.transactions == []


# -- end-to-end: the protocols actually produce serializable histories -----------------


@given(
    workload=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.floats(0.0, 40.0)),
        min_size=2, max_size=12,
    ),
    seed=st.integers(0, 500),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_2pl_histories_are_serializable(workload, seed):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0))
    server = ResourceServer(sim, net, "srv", initial={"k0": 0, "k1": 0, "k2": 0})
    coordinators = [TransactionCoordinator(sim, net, f"c{i}") for i in range(2)]
    for who, key_index, at in workload:
        txn = Transaction(
            ops=[update("srv", f"k{key_index}", lambda ctx, k=f"k{key_index}": (ctx[k] or 0) + 1)],
        )
        sim.call_at(at, coordinators[who].submit, txn)
    sim.run(until=10_000)
    verdict = check_serializable(server.history)
    assert verdict.serializable, verdict.cycle
    # and no update was lost: committed increments == final value
    committed = sum(c.committed for c in coordinators)
    assert sum(server.store.values()) == committed


@given(
    workload=st.lists(
        # (coordinator, key-on-server-A?, key index, submit time)
        st.tuples(st.integers(0, 1), st.booleans(), st.booleans(),
                  st.floats(0.0, 40.0)),
        min_size=2, max_size=10,
    ),
    seed=st.integers(0, 500),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_distributed_2pl_histories_are_serializable(workload, seed):
    """Cross-server transactions: merge both servers' histories (keys are
    disjoint per server) and check the combined serialization graph."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0))
    sa = ResourceServer(sim, net, "sa", initial={"a0": 0, "a1": 0})
    sb = ResourceServer(sim, net, "sb", initial={"b0": 0, "b1": 0})
    coordinators = [TransactionCoordinator(sim, net, f"c{i}") for i in range(2)]
    for who, both, key_bit, at in workload:
        ops = [update("sa", f"a{int(key_bit)}",
                      lambda ctx, k=f"a{int(key_bit)}": (ctx[k] or 0) + 1)]
        if both:
            ops.append(update("sb", f"b{int(key_bit)}",
                              lambda ctx, k=f"b{int(key_bit)}": (ctx[k] or 0) + 1))
        sim.call_at(at, coordinators[who].submit, Transaction(ops=ops))
    sim.run(until=10_000)
    merged = HistoryRecorder()
    for server in (sa, sb):
        for txn in server.history.transactions:
            for key, version in txn.reads.items():
                merged.record_read(txn.txn_id, f"{server.pid}/{key}", version)
            for key, version in txn.writes.items():
                merged.record_write(txn.txn_id, f"{server.pid}/{key}", version)
    verdict = check_serializable(merged)
    assert verdict.serializable, verdict.cycle
