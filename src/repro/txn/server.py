"""Transactional resource server: versioned store + 2PL + WAL + 2PC participant.

Each server owns a partition of the database.  It can *refuse* an update at
prepare time — lack of storage, protection, application constraints — which
is the capability Section 3 (limitation 2) highlights: "standard atomic
transaction protocols allow a participating server process to abort a
transaction for these reasons", something a CATOCS delivery order cannot
express.  Constraints are injectable predicates so experiments can trigger
exactly this class of rejection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.txn.locks import LockManager, LockRequestState
from repro.txn.messages import (
    Decision,
    DecisionAck,
    LockGranted,
    LockRequest,
    Prepare,
    ReadReply,
    ReadRequest,
    StageAck,
    StageWrite,
    Vote,
)
from repro.txn.serializability import HistoryRecorder
from repro.txn.wal import StableStorage, WriteAheadLog

#: constraint(key, value, current_store) -> rejection reason or None
Constraint = Callable[[str, Any, Dict[str, Any]], Optional[str]]


class ResourceServer(Process):
    """One database partition participating in distributed transactions."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        initial: Optional[Dict[str, Any]] = None,
        constraint: Optional[Constraint] = None,
    ) -> None:
        super().__init__(sim, network, pid)
        self.stable = StableStorage()
        # The initial values are installed on disk, so a recovery that
        # replays the WAL replays it over them, not over an empty store.
        self.stable.write("initial", dict(initial or {}))
        self.wal = WriteAheadLog(self.stable)
        self.store: Dict[str, Any] = dict(initial or {})
        self.versions: Dict[str, int] = {k: 1 for k in self.store}
        self.locks = LockManager()
        self.constraint = constraint
        #: staged (uncommitted) writes per transaction — volatile
        self.staged: Dict[str, Dict[str, Any]] = {}
        #: coordinator of each active transaction
        self._coordinator_of: Dict[str, str] = {}
        #: versions observed by each transaction's reads (for the
        #: serializability checker; folded into `history` at commit)
        self._read_log: Dict[str, Dict[str, int]] = {}
        self.history = HistoryRecorder()
        self.commits = 0
        self.aborts = 0
        self.refusals = 0

    # -- crash / recovery ---------------------------------------------------------

    def on_crash(self) -> None:
        # Volatile state is lost; stable storage (the WAL) survives.
        self.staged.clear()
        self.store = {}
        self.versions = {}
        self.locks = LockManager()

    def on_recover(self) -> None:
        # Rebuild committed state: the initial values, then the log.
        self.store = {**self.stable.read("initial"), **self.wal.recover()}
        self.versions = {k: 1 for k in self.store}
        self.wal = WriteAheadLog(self.stable)

    # -- message handling ------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, LockRequest):
            self._on_lock_request(payload)
        elif isinstance(payload, ReadRequest):
            self._on_read(src, payload)
        elif isinstance(payload, StageWrite):
            self._on_stage(src, payload)
        elif isinstance(payload, Prepare):
            self._on_prepare(payload)
        elif isinstance(payload, Decision):
            self._on_decision(src, payload)

    def _on_lock_request(self, request: LockRequest) -> None:
        self._coordinator_of[request.txn_id] = request.coordinator
        granted = LockGranted(txn_id=request.txn_id, key=request.key, server=self.pid)
        coordinator = request.coordinator

        def notify() -> None:
            self.send(coordinator, granted)

        state = self.locks.acquire(request.txn_id, request.key, request.mode, notify)
        if state is LockRequestState.GRANTED:
            notify()

    def _on_read(self, src: str, request: ReadRequest) -> None:
        value = self.staged.get(request.txn_id, {}).get(
            request.key, self.store.get(request.key)
        )
        self._read_log.setdefault(request.txn_id, {})[request.key] = (
            self.versions.get(request.key, 0)
        )
        self.send(
            src,
            ReadReply(
                txn_id=request.txn_id,
                key=request.key,
                value=value,
                version=self.versions.get(request.key, 0),
                server=self.pid,
            ),
        )

    def _on_stage(self, src: str, stage: StageWrite) -> None:
        self.staged.setdefault(stage.txn_id, {})[stage.key] = stage.value
        self.send(src, StageAck(txn_id=stage.txn_id, key=stage.key, server=self.pid))

    def _on_prepare(self, prepare: Prepare) -> None:
        txn_id = prepare.txn_id
        writes = self.staged.get(txn_id, {})
        if self.constraint is not None:
            # Sorted so the refusal names the smallest violating key, not
            # whichever key the client happened to stage first.
            for key, value in sorted(writes.items()):
                reason = self.constraint(key, value, self.store)
                if reason is not None:
                    self.refusals += 1
                    self.wal.log_abort(txn_id)
                    self.send(
                        prepare.coordinator,
                        Vote(txn_id=txn_id, server=self.pid, yes=False, reason=reason),
                    )
                    return
        for key, value in writes.items():
            self.wal.log_update(txn_id, key, value)
        self.wal.log_prepare(txn_id)
        self.send(prepare.coordinator, Vote(txn_id=txn_id, server=self.pid, yes=True))

    def _on_decision(self, src: str, decision: Decision) -> None:
        txn_id = decision.txn_id
        if decision.commit:
            self.wal.log_commit(txn_id)
            writes = self.staged.pop(txn_id, None)
            if writes is None:
                # We crashed between prepare and decision: replay from WAL.
                writes = {
                    r.key: r.value
                    for r in self.wal.records
                    if r.kind == "update" and r.txn_id == txn_id and r.key is not None
                }
            for key, version in self._read_log.pop(txn_id, {}).items():
                self.history.record_read(txn_id, key, version)
            for key, value in writes.items():
                self.store[key] = value
                self.versions[key] = self.versions.get(key, 0) + 1
                self.history.record_write(txn_id, key, self.versions[key])
            self.commits += 1
        else:
            self.wal.log_abort(txn_id)
            self.staged.pop(txn_id, None)
            self._read_log.pop(txn_id, None)
            self.history.discard(txn_id)
            self.aborts += 1
        self.locks.release_all(txn_id)
        self._coordinator_of.pop(txn_id, None)
        self.send(src, DecisionAck(txn_id=txn_id, server=self.pid))

    # -- introspection for detectors ----------------------------------------------------

    def wait_for_edges(self):
        """(waiter txn -> holder txn) edges at this partition, any order."""
        return self.locks.wait_for_edges()
