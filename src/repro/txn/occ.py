"""Optimistic concurrency control with commit-time global ordering.

Section 4.3: "with a so-called optimistic transaction system, transactions
are globally ordered at commit time ... a simple ordering mechanism, such as
local timestamp of the coordinator at the initiation of the commit protocol,
plus node id to break ties, provides a globally consistent ordering on
transactions without using or needing CATOCS."

Reads execute without locks and record the version seen; writes are
buffered.  At commit the client stamps the transaction with its Lamport
clock (+pid tiebreak) and runs validate-and-apply against each touched
server: the server votes no if any read version is no longer current or a
conflicting transaction is mid-commit.  Single-server transactions decide in
one round trip; multi-server ones use 2PC with the same votes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.ordering.lamport import LamportClock
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.txn.serializability import HistoryRecorder


@dataclass
class OccRead:
    txn_id: str
    key: str


@dataclass
class OccReadReply:
    txn_id: str
    key: str
    value: Any
    version: int
    server: str


@dataclass
class OccValidate:
    """Validate-and-prepare: read set (key -> seen version) + buffered writes."""

    txn_id: str
    timestamp: Tuple[int, str]
    read_set: Dict[str, int]
    write_set: Dict[str, Any]
    client: str


@dataclass
class OccVote:
    txn_id: str
    server: str
    yes: bool
    reason: str = ""


@dataclass
class OccDecision:
    txn_id: str
    commit: bool


@dataclass
class OccResult:
    txn_id: str
    status: str  # "committed" | "aborted"
    reason: str = ""
    ctx: Dict[str, Any] = field(default_factory=dict)
    timestamp: Optional[Tuple[int, str]] = None
    submitted_at: float = 0.0
    finished_at: float = 0.0
    restarts: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


class OccServer(Process):
    """Versioned store with backward validation.

    A key is "busy" between a yes-vote and the decision; conflicting
    validations vote no rather than wait (first-committer-wins).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        initial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(sim, network, pid)
        self.store: Dict[str, Any] = dict(initial or {})
        self.versions: Dict[str, int] = {k: 1 for k in self.store}
        #: key -> txn holding a yes-vote touching it
        self._busy: Dict[str, str] = {}
        self._prepared: Dict[str, OccValidate] = {}
        self.history = HistoryRecorder()
        self.commits = 0
        self.aborts = 0

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, OccRead):
            # Read->ReadReply->Read ping-pong is bounded by the fixed read
            # set of each OCC transaction (a reply triggers the next read
            # only while unread keys remain), so the tick drains.
            self.send(
                src,
                OccReadReply(
                    txn_id=payload.txn_id,
                    key=payload.key,
                    value=self.store.get(payload.key),
                    version=self.versions.get(payload.key, 0),
                    server=self.pid,
                ),
            )
        elif isinstance(payload, OccValidate):
            self._validate(src, payload)
        elif isinstance(payload, OccDecision):
            self._decide(payload)

    def _validate(self, src: str, validate: OccValidate) -> None:
        reason = ""
        for key, seen_version in validate.read_set.items():
            if self.versions.get(key, 0) != seen_version:
                reason = f"stale read of {key}"
                break
            if key in self._busy and self._busy[key] != validate.txn_id:
                reason = f"{key} busy in {self._busy[key]}"
                break
        if not reason:
            for key in validate.write_set:
                if key in self._busy and self._busy[key] != validate.txn_id:
                    reason = f"{key} busy in {self._busy[key]}"
                    break
        if reason:
            self.aborts += 1
            self.send(src, OccVote(txn_id=validate.txn_id, server=self.pid, yes=False, reason=reason))
            return
        for key in list(validate.read_set) + list(validate.write_set):
            self._busy[key] = validate.txn_id
        self._prepared[validate.txn_id] = validate
        self.send(src, OccVote(txn_id=validate.txn_id, server=self.pid, yes=True))

    def _decide(self, decision: OccDecision) -> None:
        validate = self._prepared.pop(decision.txn_id, None)
        if validate is None:
            return
        for key, owner in list(self._busy.items()):
            if owner == decision.txn_id:
                del self._busy[key]
        if decision.commit:
            for key, version in validate.read_set.items():
                self.history.record_read(decision.txn_id, key, version)
            for key, value in validate.write_set.items():
                self.store[key] = value
                self.versions[key] = self.versions.get(key, 0) + 1
                self.history.record_write(decision.txn_id, key, self.versions[key])
            self.commits += 1
        else:
            self.aborts += 1


@dataclass
class OccTransaction:
    """A scripted optimistic transaction.

    ``reads`` execute first (in order); then ``compute`` (if any) derives
    the write set from the read context; explicit ``writes`` are merged in.
    """

    reads: List[Tuple[str, str]] = field(default_factory=list)  # (server, key)
    writes: Dict[Tuple[str, str], Any] = field(default_factory=dict)  # (server, key) -> value
    compute: Optional[Callable[[Dict[str, Any]], Dict[Tuple[str, str], Any]]] = None
    on_done: Optional[Callable[[OccResult], None]] = None
    label: str = ""
    max_restarts: int = 0


class _OccActive:
    def __init__(self, txn_id: str, txn: OccTransaction, submitted_at: float) -> None:
        self.txn_id = txn_id
        self.txn = txn
        self.submitted_at = submitted_at
        self.read_index = 0
        self.ctx: Dict[str, Any] = {}
        self.read_versions: Dict[Tuple[str, str], int] = {}
        self.write_set: Dict[Tuple[str, str], Any] = {}
        self.timestamp: Optional[Tuple[int, str]] = None
        self.votes: Dict[str, bool] = {}
        self.participants: Set[str] = set()
        self.phase = "reads"
        self.restarts = 0


class OccClient(Process):
    """Client/coordinator for optimistic transactions."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        restart_backoff: float = 25.0,
    ) -> None:
        super().__init__(sim, network, pid)
        self.clock = LamportClock(pid)
        self.restart_backoff = restart_backoff
        self._ids = itertools.count(1)
        self._active: Dict[str, _OccActive] = {}
        self.results: List[OccResult] = []
        self.committed = 0
        self.aborted = 0

    def submit(self, txn: OccTransaction) -> str:
        label = txn.label or "o"
        txn_id = f"{self.pid}/{label}#{next(self._ids)}"
        active = _OccActive(txn_id, txn, self.sim.now)
        self._active[txn_id] = active
        self._next_read(active)
        return txn_id

    # -- phases ------------------------------------------------------------------------

    def _next_read(self, active: _OccActive) -> None:
        reads = active.txn.reads
        if active.read_index >= len(reads):
            self._start_commit(active)
            return
        server, key = reads[active.read_index]
        self.send(server, OccRead(txn_id=active.txn_id, key=key))

    def _start_commit(self, active: _OccActive) -> None:
        active.phase = "validate"
        active.write_set = dict(active.txn.writes)
        if active.txn.compute is not None:
            active.write_set.update(active.txn.compute(active.ctx))
        # The global commit order: coordinator Lamport time + pid tiebreak.
        active.timestamp = self.clock.stamp()
        by_server: Dict[str, Tuple[Dict[str, int], Dict[str, Any]]] = {}
        for (server, key), version in active.read_versions.items():
            by_server.setdefault(server, ({}, {}))[0][key] = version
        for (server, key), value in active.write_set.items():
            by_server.setdefault(server, ({}, {}))[1][key] = value
        if not by_server:
            self._finish(active, True, "")
            return
        active.participants = set(by_server)
        # Canonical participant order: validate requests go out sorted by
        # server id, not in the order the transaction happened to touch keys.
        for server, (read_set, write_set) in sorted(by_server.items()):
            self.send(
                server,
                OccValidate(
                    txn_id=active.txn_id,
                    timestamp=active.timestamp,
                    read_set=read_set,
                    write_set=write_set,
                    client=self.pid,
                ),
            )

    def _finish(self, active: _OccActive, commit: bool, reason: str) -> None:
        self._active.pop(active.txn_id, None)
        if commit:
            self.committed += 1
        else:
            self.aborted += 1
            if active.restarts < active.txn.max_restarts:
                self.sim.call_later(self.restart_backoff, self._restart, active)
                return
        result = OccResult(
            txn_id=active.txn_id,
            status="committed" if commit else "aborted",
            reason=reason,
            ctx=active.ctx,
            timestamp=active.timestamp,
            submitted_at=active.submitted_at,
            finished_at=self.sim.now,
            restarts=active.restarts,
        )
        self.results.append(result)
        if active.txn.on_done is not None:
            active.txn.on_done(result)

    def _restart(self, old: _OccActive) -> None:
        if not self.alive:
            return
        fresh = _OccActive(old.txn_id + "r", old.txn, old.submitted_at)
        fresh.restarts = old.restarts + 1
        self._active[fresh.txn_id] = fresh
        self._next_read(fresh)

    # -- message handling --------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, OccReadReply):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "reads":
                return
            active.ctx[payload.key] = payload.value
            active.read_versions[(payload.server, payload.key)] = payload.version
            active.read_index += 1
            self._next_read(active)
            return
        if isinstance(payload, OccVote):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "validate":
                return
            active.votes[payload.server] = payload.yes
            if not payload.yes:
                active.phase = "decide"
                for server in active.participants:
                    self.send(server, OccDecision(txn_id=active.txn_id, commit=False))
                self._finish(active, False, payload.reason)
                return
            if set(active.votes) >= active.participants:
                active.phase = "decide"
                for server in active.participants:
                    self.send(server, OccDecision(txn_id=active.txn_id, commit=True))
                self._finish(active, True, "")
            return
