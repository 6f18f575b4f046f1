"""Section 4.4: a Harp-style transactional replicated file service.

Harp [19] replicates an NFS server with "highly optimized atomic transaction
techniques" — each file write is a small transaction made durable (WAL)
before acknowledgement.  We drive the same workload as the Deceit-style
service through :mod:`repro.txn.replication`'s read-any/write-all-available
client, including the availability-list optimisation the paper describes
(failed replicas are dropped at commit rather than aborting the write).

The comparison (experiment E09): acknowledged writes are *never* lost here —
the WAL survives the crash and recovery replays it — while write latency is
comparable to Deceit's synchronous (k >= 1) configuration, i.e. CATOCS
bought no asynchrony that durability-respecting replication wouldn't.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.failure import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.network import LinkModel, Network
from repro.txn.replication import ReplicaServer, ReplicatedStoreClient


@dataclass
class HarpRunResult:
    replication: int
    writes_submitted: int
    writes_committed: int
    mean_commit_latency: float
    #: committed writes absent from every surviving in-service replica
    lost_committed_writes: int
    replicas_dropped: int
    surviving_files: Dict[str, int]
    #: files recoverable from WALs even on crashed replicas
    durable_files: Dict[str, int]


def run_harp(
    seed: int = 0,
    replication: int = 3,
    writes: int = 20,
    write_interval: float = 15.0,
    crash_replica_at: Optional[float] = None,
    crash_replica_index: int = 0,
    recover_at: Optional[float] = None,
    latency: float = 5.0,
    jitter: float = 3.0,
    vote_timeout: float = 60.0,
) -> HarpRunResult:
    """Drive the E09 write stream through transactional replication."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=latency, jitter=jitter))
    pids = [f"harp{i}" for i in range(replication)]
    replicas = {pid: ReplicaServer(sim, net, pid) for pid in pids}
    client = ReplicatedStoreClient(sim, net, "client", replicas=pids,
                                   vote_timeout=vote_timeout)

    for i in range(writes):
        sim.call_at(10.0 + i * write_interval, client.write, f"file{i}", i)
    last_stimulus = 10.0 + (writes - 1) * write_interval

    injector = FailureInjector(sim, net)
    crashed_pid = pids[crash_replica_index]
    if crash_replica_at is not None:
        injector.crash_at(crash_replica_at, crashed_pid)
        last_stimulus = max(last_stimulus, crash_replica_at)
        if recover_at is not None:
            injector.recover_at(recover_at, crashed_pid)
            # After WAL recovery, catch up from a live peer and rejoin.
            peer = pids[(crash_replica_index + 1) % replication]
            sim.call_at(recover_at + 1.0, replicas[crashed_pid].begin_rejoin, peer)
            last_stimulus = max(last_stimulus, recover_at + 1.0)

    # Ten vote timeouts after the last write, crash or rejoin every
    # transaction has committed or aborted and the rejoin is announced.
    sim.run(until=last_stimulus + 10 * vote_timeout)

    committed = [r for r in client.write_results if r.status == "committed"]
    latencies = [r.latency for r in committed]
    in_service = [r for r in replicas.values() if r.alive]
    lost_committed = 0
    for result in committed:
        if not any(result.key in r.store for r in in_service):
            lost_committed += 1
    durable = {}
    for pid, replica in replicas.items():
        durable[pid] = len(replica.wal.recover())
    return HarpRunResult(
        replication=replication,
        writes_submitted=len(client.write_results),
        writes_committed=len(committed),
        mean_commit_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        lost_committed_writes=lost_committed,
        replicas_dropped=client.drops,
        surviving_files={r.pid: len(r.store) for r in in_service},
        durable_files=durable,
    )
