"""Transaction coordinator: sequential op execution under 2PL, then 2PC.

Transactions are scripted as operation lists (read/write against named
servers); the coordinator drives each transaction as an event-driven state
machine: acquire lock, perform op, advance; then prepare/decide.  "Because
the commit protocol is executed by a single site ... the delivery of commit
phase messages is easily ordered by conventional transport mechanisms
without CATOCS" (Section 4.3).

Deadlock handling is deliberately external: a detector (or a timeout) calls
:meth:`TransactionCoordinator.abort_txn` on a victim.  This keeps the E08
experiments honest — detection cost is measured where the paper says it
belongs, outside the data path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.txn.locks import LockMode
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

ValueOrFn = Union[Any, Callable[[Dict[str, Any]], Any]]


@dataclass
class Op:
    """One transaction step against one server."""

    kind: str  # "read" | "write" | "update"
    server: str
    key: str
    value: ValueOrFn = None


def read(server: str, key: str) -> Op:
    """Read ``key`` under a shared lock into the transaction context."""
    return Op(kind="read", server=server, key=key)


def write(server: str, key: str, value: ValueOrFn) -> Op:
    """Stage a write under an exclusive lock; ``value`` may be a function of
    the transaction context."""
    return Op(kind="write", server=server, key=key, value=value)


def update(server: str, key: str, value: ValueOrFn) -> Op:
    """Read-modify-write under an exclusive lock from the start.

    Avoids the classic S->X upgrade deadlock that read()+write() on the same
    key produces under contention.  ``value`` receives the transaction
    context (which includes the freshly read ``key``).
    """
    return Op(kind="update", server=server, key=key, value=value)


@dataclass
class TxnResult:
    """Outcome handed to the submitter's callback."""

    txn_id: str
    status: str  # "committed" | "aborted" | "refused"
    reason: str = ""
    ctx: Dict[str, Any] = field(default_factory=dict)
    submitted_at: float = 0.0
    finished_at: float = 0.0
    restarts: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


@dataclass
class Transaction:
    """A scripted transaction."""

    ops: List[Op]
    on_done: Optional[Callable[[TxnResult], None]] = None
    label: str = ""
    max_restarts: int = 0  # automatic retries after deadlock aborts


class _Active:
    """Coordinator-side state machine for one running transaction."""

    def __init__(self, txn_id: str, txn: Transaction, submitted_at: float) -> None:
        self.txn_id = txn_id
        self.txn = txn
        self.submitted_at = submitted_at
        self.step = 0
        self.phase = "ops"  # ops -> prepare -> decide -> done
        self.ctx: Dict[str, Any] = {}
        self.participants: Set[str] = set()
        self.votes: Dict[str, Vote] = {}
        self.acks: Set[str] = set()
        self.commit: Optional[bool] = None
        self.reason = ""
        self.restarts = 0
        self.doomed = False  # externally aborted while ops in flight


class TransactionCoordinator(Process):
    """Runs any number of concurrent scripted transactions."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        restart_backoff: float = 30.0,
        prepare_timeout: float = 200.0,
    ) -> None:
        super().__init__(sim, network, pid)
        self.restart_backoff = restart_backoff
        #: A participant that fails to vote within this window (it crashed,
        #: or its link failed) forces an abort — the coordinator may always
        #: abort an undecided transaction.
        self.prepare_timeout = prepare_timeout
        self._ids = itertools.count(1)
        self._active: Dict[str, _Active] = {}
        self.results: List[TxnResult] = []
        self.committed = 0
        self.aborted = 0

    # -- public API -----------------------------------------------------------------

    def submit(self, txn: Transaction) -> str:
        """Start a transaction; returns its id."""
        label = txn.label or "t"
        txn_id = f"{self.pid}/{label}#{next(self._ids)}"
        active = _Active(txn_id, txn, self.sim.now)
        self._active[txn_id] = active
        self._advance(active)
        return txn_id

    def abort_txn(self, txn_id: str, reason: str = "external") -> bool:
        """Abort a running transaction (deadlock victim, timeout...)."""
        active = self._active.get(txn_id)
        if active is None or active.phase in ("decide", "done"):
            return False
        active.doomed = True
        active.reason = reason
        self._decide(active, commit=False)
        return True

    def active_txn_ids(self) -> List[str]:
        return list(self._active)

    # -- state machine ----------------------------------------------------------------

    def _advance(self, active: _Active) -> None:
        if active.doomed or active.phase != "ops":
            return
        ops = active.txn.ops
        if active.step >= len(ops):
            self._begin_prepare(active)
            return
        op = ops[active.step]
        active.participants.add(op.server)
        mode = LockMode.SHARED if op.kind == "read" else LockMode.EXCLUSIVE
        self.send(
            op.server,
            LockRequest(txn_id=active.txn_id, key=op.key, mode=mode, coordinator=self.pid),
        )
        # A dead participant answers nothing; don't hang the transaction.
        # (Lock *waits* are legitimate and handled by deadlock detection;
        # the timeout only fires if the step made no progress at all.)
        self.set_timer(self.prepare_timeout, self._op_deadline,
                       active.txn_id, active.step)

    def _op_deadline(self, txn_id: str, step: int) -> None:
        active = self._active.get(txn_id)
        if active is None or active.phase != "ops" or active.step != step:
            return
        server = active.txn.ops[step].server
        # Deliberate hidden channel: the coordinator consults a *perfect*
        # failure oracle so the experiments isolate ordering effects from
        # failure-detection noise.  A real system would need a detector
        # (paper Section 4) — routing this through messages would change
        # every experiment timeline, so the read stays, annotated.
        if self.network.process(server).alive:
            # Still blocked on a lock held by someone: give it more time and
            # leave resolution to deadlock detection / external aborts.
            self.set_timer(self.prepare_timeout, self._op_deadline, txn_id, step)
            return
        active.reason = "prepare timeout"
        self._decide(active, commit=False)

    def _perform_op(self, active: _Active) -> None:
        op = active.txn.ops[active.step]
        if op.kind in ("read", "update"):
            self.send(op.server, ReadRequest(txn_id=active.txn_id, key=op.key))
        else:
            value = op.value(active.ctx) if callable(op.value) else op.value
            self.send(op.server, StageWrite(txn_id=active.txn_id, key=op.key, value=value))

    def _begin_prepare(self, active: _Active) -> None:
        active.phase = "prepare"
        if not active.participants:
            self._finish(active, "committed")
            return
        for server in active.participants:
            self.send(server, Prepare(txn_id=active.txn_id, coordinator=self.pid))
        self.set_timer(self.prepare_timeout, self._prepare_deadline, active.txn_id)

    def _prepare_deadline(self, txn_id: str) -> None:
        active = self._active.get(txn_id)
        if active is None or active.phase != "prepare":
            return
        active.reason = "prepare timeout"
        self._decide(active, commit=False)

    def _decide(self, active: _Active, commit: bool) -> None:
        active.phase = "decide"
        active.commit = commit
        if not active.participants:
            self._finish(active, "committed" if commit else "aborted")
            return
        for server in active.participants:
            self.send(server, Decision(txn_id=active.txn_id, commit=commit, coordinator=self.pid))
        # A crashed participant never acks; the decision is logged and will
        # be replayed at its recovery, so don't block the client on it.
        self.set_timer(self.prepare_timeout, self._decide_deadline, active.txn_id)

    def _decide_deadline(self, txn_id: str) -> None:
        active = self._active.get(txn_id)
        if active is None or active.phase != "decide":
            return
        self._finish_decided(active)

    _ABORT_REASONS = ("external", "deadlock", "prepare timeout")

    def _finish_decided(self, active: _Active) -> None:
        if active.commit:
            status = "committed"
        elif active.reason and active.reason not in self._ABORT_REASONS:
            # A participant voted no for an application/state-level reason.
            status = "refused"
        else:
            status = "aborted"
        self._finish(active, status)

    def _finish(self, active: _Active, status: str) -> None:
        active.phase = "done"
        self._active.pop(active.txn_id, None)
        if status == "committed":
            self.committed += 1
        else:
            self.aborted += 1
        restartable = (
            status != "committed"
            and active.restarts < active.txn.max_restarts
        )
        if restartable:
            self.sim.call_later(
                self.restart_backoff, self._restart, active
            )
            return
        result = TxnResult(
            txn_id=active.txn_id,
            status=status,
            reason=active.reason,
            ctx=active.ctx,
            submitted_at=active.submitted_at,
            finished_at=self.sim.now,
            restarts=active.restarts,
        )
        self.results.append(result)
        if active.txn.on_done is not None:
            active.txn.on_done(result)

    def _restart(self, old: _Active) -> None:
        if not self.alive:
            return
        fresh = _Active(old.txn_id + "r", old.txn, old.submitted_at)
        fresh.restarts = old.restarts + 1
        self._active[fresh.txn_id] = fresh
        self._advance(fresh)

    # -- message handling -----------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, LockGranted):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "ops" or active.doomed:
                return
            op = active.txn.ops[active.step]
            if op.server == payload.server and op.key == payload.key:
                self._perform_op(active)
            return
        if isinstance(payload, ReadReply):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "ops":
                return
            active.ctx[payload.key] = payload.value
            active.ctx[f"{payload.key}@version"] = payload.version
            op = active.txn.ops[active.step]
            if op.kind == "update" and op.key == payload.key:
                # Read half done; stage the computed write (same X lock).
                value = op.value(active.ctx) if callable(op.value) else op.value
                self.send(op.server, StageWrite(txn_id=active.txn_id,
                                                key=op.key, value=value))
                return
            active.step += 1
            self._advance(active)
            return
        if isinstance(payload, StageAck):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "ops":
                return
            active.step += 1
            self._advance(active)
            return
        if isinstance(payload, Vote):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "prepare":
                return
            active.votes[payload.server] = payload
            if not payload.yes:
                active.reason = payload.reason or "refused"
                self._decide(active, commit=False)
                return
            if set(active.votes) >= active.participants:
                self._decide(active, commit=True)
            return
        if isinstance(payload, DecisionAck):
            active = self._active.get(payload.txn_id)
            if active is None or active.phase != "decide":
                return
            active.acks.add(payload.server)
            if active.acks >= active.participants:
                self._finish_decided(active)
            return
