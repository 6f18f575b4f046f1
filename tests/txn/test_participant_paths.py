"""Participant and coordinator paths the end-to-end 2PC tests do not reach:
a decision that arrives after a crash between prepare and decide, a
participant that goes silent after staging, stale replies for finished
transactions, and lock-ownership queries."""

import pytest

from repro.sim import LinkModel, Network, Process, Simulator
from repro.txn import (
    LockManager,
    LockMode,
    ReplicaServer,
    ReplicatedStoreClient,
    ResourceServer,
    Transaction,
    TransactionCoordinator,
)
from repro.txn.coordinator import write
from repro.txn.messages import (
    Decision,
    DecisionAck,
    LockGranted,
    LockRequest,
    Prepare,
    ReadReply,
    StageAck,
    StageWrite,
    Vote,
)
from repro.txn.replication import RepDecision, RepDecisionAck, RepPrepare, RepVote


class Driver(Process):
    """Sends hand-built protocol messages and records every reply."""

    def __init__(self, sim, network, pid="drv"):
        super().__init__(sim, network, pid)
        self.got = []

    def on_message(self, src, payload):
        self.got.append(payload)


def _net(seed=0):
    sim = Simulator(seed=seed)
    return sim, Network(sim, LinkModel(latency=1.0))


def _prepare_at_server(sim, drv, server, key, value):
    drv.send(server.pid, LockRequest(txn_id="t1", key=key, mode=LockMode.EXCLUSIVE,
                                     coordinator=drv.pid))
    drv.send(server.pid, StageWrite(txn_id="t1", key=key, value=value))
    drv.send(server.pid, Prepare(txn_id="t1", coordinator=drv.pid))
    sim.run(until=sim.now + 10.0)


def test_prepared_server_replays_its_staged_writes_from_the_wal_after_a_crash():
    sim, net = _net()
    server = ResourceServer(sim, net, "s", initial={"x": 1})
    drv = Driver(sim, net)
    sim.run(until=1.0)
    _prepare_at_server(sim, drv, server, "x", 42)
    assert Vote(txn_id="t1", server="s", yes=True) in drv.got
    server.crash()
    server.recover()
    assert server.staged == {}  # the volatile copy is gone
    drv.send("s", Decision(txn_id="t1", commit=True, coordinator=drv.pid))
    sim.run(until=sim.now + 10.0)
    assert server.store["x"] == 42
    assert server.commits == 1
    assert drv.got[-1] == DecisionAck(txn_id="t1", server="s")


def test_abort_after_a_crash_applies_nothing_and_logs_the_abort():
    sim, net = _net()
    server = ResourceServer(sim, net, "s", initial={"x": 1})
    drv = Driver(sim, net)
    sim.run(until=1.0)
    _prepare_at_server(sim, drv, server, "x", 42)
    server.crash()
    server.recover()
    drv.send("s", Decision(txn_id="t1", commit=False, coordinator=drv.pid))
    sim.run(until=sim.now + 10.0)
    assert server.store.get("x") != 42
    assert server.aborts == 1
    assert [r.kind for r in server.wal.records][-1] == "abort"


def test_prepared_replica_replays_from_the_wal_after_a_crash():
    sim, net = _net()
    replica = ReplicaServer(sim, net, "r0")
    drv = Driver(sim, net)
    sim.run(until=1.0)
    drv.send("r0", RepPrepare(write_id="w1", key="f", value=7, client=drv.pid))
    sim.run(until=10.0)
    assert drv.got == [RepVote(write_id="w1", replica="r0", yes=True)]
    replica.crash()
    replica.recover()
    drv.send("r0", RepDecision(write_id="w1", commit=True))
    sim.run(until=20.0)
    assert replica.store == {"f": 7}
    assert replica.commits == 1
    assert drv.got[-1] == RepDecisionAck(write_id="w1", replica="r0")


def test_replica_abort_decision_logs_the_abort_and_applies_nothing():
    sim, net = _net()
    replica = ReplicaServer(sim, net, "r0")
    drv = Driver(sim, net)
    sim.run(until=1.0)
    drv.send("r0", RepPrepare(write_id="w1", key="f", value=7, client=drv.pid))
    drv.send("r0", RepDecision(write_id="w1", commit=False))
    sim.run(until=10.0)
    assert replica.store == {}
    assert replica.commits == 0
    assert [r.kind for r in replica.wal.records] == ["update", "prepare", "abort"]
    assert drv.got[-1] == RepDecisionAck(write_id="w1", replica="r0")


def test_write_with_an_empty_availability_list_fails_at_once():
    sim, net = _net()
    client = ReplicatedStoreClient(sim, net, "cli", replicas=[])
    results = []
    sim.run(until=1.0)
    client.write("f", 1, results.append)
    assert [r.status for r in results] == ["failed"]
    assert results[0].replicas == ()
    assert results[0].latency == 0.0
    assert net.stats.sent == 0


def test_replication_client_ignores_votes_and_acks_for_unknown_writes():
    sim, net = _net()
    ReplicaServer(sim, net, "r0")
    client = ReplicatedStoreClient(sim, net, "cli", replicas=["r0"],
                                   ack_on_prepared=False)
    results = []
    sim.call_at(1.0, client.write, "f", 1, results.append)
    sim.run(until=100.0)
    assert [r.status for r in results] == ["committed"]
    write_id = results[0].write_id
    sim.call_at(101.0, net.send, "r0", "cli", RepVote(write_id=write_id, replica="r0", yes=True))
    sim.call_at(101.0, net.send, "r0", "cli", RepDecisionAck(write_id=write_id, replica="r0"))
    sim.call_at(101.0, net.send, "r0", "cli", RepDecisionAck(write_id="cli/w#99", replica="r0"))
    sim.run(until=200.0)
    assert len(client.write_results) == 1


def test_participant_silent_after_staging_aborts_on_the_prepare_deadline():
    sim, net = _net()
    sa = ResourceServer(sim, net, "sa", initial={"x": 1})
    ResourceServer(sim, net, "sb", initial={"y": 1})
    co = TransactionCoordinator(sim, net, "co", prepare_timeout=50.0)
    done = []
    sim.call_at(1.0, co.submit, Transaction(
        ops=[write("sa", "x", 2), write("sb", "y", 2)], on_done=done.append))
    # sb stays alive but is cut off once both writes are staged, so its
    # Prepare is lost: only the prepare deadline can end the transaction.
    sim.call_at(9.5, net.partition, {"co", "sa"}, {"sb"})
    sim.run(until=400.0)
    assert [(r.status, r.reason) for r in done] == [("aborted", "prepare timeout")]
    assert sa.store["x"] == 1
    assert sa.aborts == 1


def test_crashed_coordinator_does_not_restart_a_transaction():
    sim, net = _net()
    sa = ResourceServer(sim, net, "sa", initial={"x": 1})
    co = TransactionCoordinator(sim, net, "co", restart_backoff=30.0)
    done = []
    sim.call_at(1.0, lambda: co.submit(Transaction(
        ops=[write("sa", "x", 2), write("sa", "y", 2)], on_done=done.append,
        max_restarts=3)))
    sim.call_at(3.5, lambda: co.abort_txn(co.active_txn_ids()[0], "deadlock"))
    sim.call_at(20.0, co.crash)
    sim.run(until=500.0)
    assert done == []  # the restart found the coordinator down
    assert co.active_txn_ids() == []
    assert sa.store["x"] == 1 and "y" not in sa.store


STALE_REPLIES = {
    "lock-granted": LockGranted(txn_id="co/t#1", key="x", server="sa"),
    "read-reply": ReadReply(txn_id="co/t#1", key="x", value=99, version=7, server="sa"),
    "stage-ack": StageAck(txn_id="co/t#1", key="x", server="sa"),
    "vote-no": Vote(txn_id="co/t#1", server="sa", yes=False, reason="late"),
    "decision-ack": DecisionAck(txn_id="co/t#1", server="sa"),
}


@pytest.mark.parametrize("stale", list(STALE_REPLIES.values()), ids=list(STALE_REPLIES))
def test_coordinator_ignores_replies_for_a_finished_transaction(stale):
    sim, net = _net()
    sa = ResourceServer(sim, net, "sa", initial={"x": 1})
    co = TransactionCoordinator(sim, net, "co")
    done = []
    sim.call_at(1.0, co.submit, Transaction(ops=[write("sa", "x", 2)], on_done=done.append))
    sim.run(until=100.0)
    assert [(r.txn_id, r.status) for r in done] == [("co/t#1", "committed")]
    sent = net.stats.sent
    sim.call_at(101.0, net.send, "sa", "co", stale)
    sim.run(until=300.0)
    assert len(done) == 1 and co.results == done
    assert (co.committed, co.aborted) == (1, 0)
    assert net.stats.sent == sent + 1  # the stale reply drew no message
    assert sa.store["x"] == 2


@pytest.mark.parametrize(
    "held, asked, expected",
    [
        (LockMode.EXCLUSIVE, None, True),
        (LockMode.SHARED, LockMode.SHARED, True),
        (LockMode.SHARED, LockMode.EXCLUSIVE, False),
        (LockMode.EXCLUSIVE, LockMode.SHARED, True),
        (LockMode.EXCLUSIVE, LockMode.EXCLUSIVE, True),
    ],
)
def test_holds_treats_an_exclusive_lock_as_covering_a_shared_one(held, asked, expected):
    locks = LockManager()
    locks.acquire("t1", "k", held)
    assert locks.holds("t1", "k", asked) is expected


def test_holds_is_false_for_unknown_keys_and_other_transactions():
    locks = LockManager()
    locks.acquire("t1", "k", LockMode.SHARED)
    assert not locks.holds("t1", "other")
    assert not locks.holds("t2", "k")
    locks.release_all("t1")
    assert not locks.holds("t1", "k")


def test_recovery_replays_the_wal_over_the_initial_values():
    sim, net = _net()
    server = ResourceServer(sim, net, "s", initial={"x": 1, "y": 2})
    drv = Driver(sim, net)
    sim.run(until=1.0)
    server.crash()
    server.recover()
    assert server.store == {"x": 1, "y": 2}
    _prepare_at_server(sim, drv, server, "x", 42)
    drv.send("s", Decision(txn_id="t1", commit=True, coordinator=drv.pid))
    sim.run(until=sim.now + 10.0)
    server.crash()
    server.recover()
    assert server.store == {"x": 42, "y": 2}
