"""Section 4.4: a Deceit-style replicated file service over causal multicast.

Deceit [27] replicated files with ISIS cbcast.  Its "write safety level" k
controls how many acknowledgements a write waits for before the client is
answered:

- k = 0: fully asynchronous — but the update lives only in volatile buffers,
  so a primary crash immediately after the local delivery loses it ("the
  write data could be lost after a single failure ... compromising the
  semantics of, and presumably the purpose of, replication").
- k >= 1 with typical replication 2: the write is effectively synchronous
  with all servers, "just as with conventional RPC" — the asynchrony CATOCS
  was supposed to buy evaporates.

This module measures exactly that trade: client-observed write latency as a
function of k, and updates lost when the primary crashes mid-stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.catocs import HeartbeatDetector, ViewManager
from repro.catocs.member import GroupMember
from repro.sim.failure import FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.network import LinkModel, Network


@dataclass
class WriteAck:
    """Replica-to-primary acknowledgement of an applied update."""

    write_id: str
    replica: str


@dataclass
class DeceitWriteRecord:
    write_id: str
    key: str
    value: Any
    submitted_at: float
    acked_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.acked_at is None:
            return None
        return self.acked_at - self.submitted_at


class DeceitReplica(GroupMember):
    """One replica of the file service.  The lowest pid acts as primary.

    File state is volatile (Deceit buffered updates in memory until stable);
    a crash wipes it, which is what exposes the k=0 durability hole.
    """

    #: k=0 writes sit in a volatile output buffer this long before the cbcast
    #: actually leaves the node (the pipelining that makes k=0 "asynchronous"
    #: — and the window in which a crash silently eats acknowledged writes).
    async_flush_delay = 8.0

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 members: Sequence[str], write_safety: int = 1,
                 **kwargs: Any) -> None:
        super().__init__(sim, network, pid, group="deceit", members=members,
                         ordering="causal", **kwargs)
        self.write_safety = write_safety
        self.files: Dict[str, Any] = {}
        self.on_deliver = self._apply
        self._pending: Dict[str, DeceitWriteRecord] = {}
        self._ack_counts: Dict[str, int] = {}
        self.write_log: List[DeceitWriteRecord] = []
        self._ids = itertools.count(1)

    # -- client entry point (on the primary) -----------------------------------------

    def client_write(self, key: str, value: Any) -> Optional[str]:
        """Accept a client write: cbcast to the group, ack per write-safety."""
        if not self.alive:
            return None
        write_id = f"{self.pid}/w{next(self._ids)}"
        record = DeceitWriteRecord(write_id=write_id, key=key, value=value,
                                   submitted_at=self.sim.now)
        self._pending[write_id] = record
        self.write_log.append(record)
        self._ack_counts[write_id] = 0
        payload = {"kind": "write", "write_id": write_id, "key": key, "value": value}
        if self.write_safety == 0:
            # Asynchronous: apply locally, answer the client immediately, and
            # let the cbcast leave with the next output-buffer flush.  A
            # crash before the flush loses an *acknowledged* write — the
            # non-durability hole of Section 2.
            self.files[key] = value
            record.acked_at = self.sim.now
            self.set_timer(self.async_flush_delay, self.multicast, payload)
        else:
            self.multicast(payload)
        return write_id

    # -- replica side -------------------------------------------------------------------

    def _apply(self, src: str, payload: Any, msg: Any) -> None:
        if not isinstance(payload, dict) or payload.get("kind") != "write":
            return
        self.files[payload["key"]] = payload["value"]
        if src != self.pid:
            self.send(src, WriteAck(write_id=payload["write_id"], replica=self.pid))

    def on_app_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, WriteAck):
            record = self._pending.get(payload.write_id)
            if record is None:
                return
            self._ack_counts[payload.write_id] += 1
            if (record.acked_at is None
                    and self._ack_counts[payload.write_id] >= self.write_safety):
                record.acked_at = self.sim.now

    # -- failure model ---------------------------------------------------------------------

    def on_crash(self) -> None:
        # Volatile buffers and file cache are gone.
        self.files = {}
        self._pending.clear()


@dataclass
class DeceitRunResult:
    write_safety: int
    replication: int
    writes_submitted: int
    writes_acked: int
    mean_ack_latency: float
    #: writes the client was told succeeded but that no surviving replica holds
    lost_acked_writes: int
    #: all writes absent from every surviving replica
    lost_writes: int
    view_changes: int
    view_change_messages: int
    surviving_files: Dict[str, int]


def run_deceit(
    seed: int = 0,
    replication: int = 3,
    write_safety: int = 1,
    writes: int = 20,
    write_interval: float = 15.0,
    crash_primary_at: Optional[float] = None,
    latency: float = 5.0,
    jitter: float = 3.0,
) -> DeceitRunResult:
    """Drive a write stream at the primary, optionally crashing it mid-stream."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=latency, jitter=jitter))
    pids = [f"rep{i}" for i in range(replication)]
    replicas: Dict[str, DeceitReplica] = {}
    heartbeat_timeout = 35.0
    for pid in pids:
        replica = DeceitReplica(sim, net, pid, members=pids, write_safety=write_safety)
        detector = HeartbeatDetector(replica, period=10.0, timeout=heartbeat_timeout)
        ViewManager(replica, detector)
        replicas[pid] = replica
    primary = replicas[pids[0]]

    for i in range(writes):
        sim.call_at(10.0 + i * write_interval, primary.client_write, f"file{i}", i)
    last_stimulus = 10.0 + (writes - 1) * write_interval

    injector = FailureInjector(sim, net)
    if crash_primary_at is not None:
        injector.crash_at(crash_primary_at, pids[0])
        last_stimulus = max(last_stimulus, crash_primary_at)

    # Ten detector timeouts after the last write or crash the view change
    # and every acknowledgement are long done; only heartbeats remain.
    sim.run(until=last_stimulus + 10 * heartbeat_timeout)

    submitted = [r for r in primary.write_log]
    acked = [r for r in submitted if r.acked_at is not None]
    latencies = [r.latency for r in acked if r.latency is not None]
    survivors = [r for r in replicas.values() if r.alive]
    lost_acked = 0
    lost_total = 0
    for record in submitted:
        held_somewhere = any(record.key in s.files for s in survivors)
        if not held_somewhere:
            lost_total += 1
            if record.acked_at is not None:
                lost_acked += 1
    view_changes = max(
        (len(r.membership.view_history) for r in survivors), default=0
    )
    view_msgs = sum(r.membership.view_change_messages for r in survivors)
    return DeceitRunResult(
        write_safety=write_safety,
        replication=replication,
        writes_submitted=len(submitted),
        writes_acked=len(acked),
        mean_ack_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        lost_acked_writes=lost_acked,
        lost_writes=lost_total,
        view_changes=view_changes,
        view_change_messages=view_msgs,
        surviving_files={s.pid: len(s.files) for s in survivors},
    )
