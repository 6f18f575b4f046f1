"""k-of-n deadlock detection (Section 4.2's quorum-wait case).

The paper lists "k-of-n deadlock" among the locally-stable problems.  The
model: a transaction needs any k of a set of n resources (the shape of
quorum acquisition — lock any majority of replicas).  Two transactions can
each hold partial quorums such that neither can ever reach k: a deadlock
with no simple wait-for cycle semantics — the right test is **graph
reduction**: repeatedly discharge any transaction whose demand is
satisfiable from available (free or eventually-released) resources; whatever
cannot be discharged is deadlocked.

Reduction is order-insensitive in exactly the paper's sense: it consumes
``(holdings, waits)`` facts gathered in any order, with plain per-reporter
sequence numbers, and reports only true deadlocks once the facts are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class KofNWait:
    """A transaction's outstanding demand: any ``k`` of ``wanted``."""

    txn: str
    wanted: FrozenSet[str]
    k: int


class KofNState:
    """Holdings + demands, and the reduction test."""

    def __init__(self) -> None:
        #: resource -> holding txn
        self.holders: Dict[str, str] = {}
        #: txn -> demand
        self.waits: Dict[str, KofNWait] = {}

    def hold(self, resource: str, txn: str) -> None:
        self.holders[resource] = txn

    def release(self, resource: str) -> None:
        self.holders.pop(resource, None)

    def wait(self, txn: str, wanted: Sequence[str], k: int) -> None:
        self.waits[txn] = KofNWait(txn=txn, wanted=frozenset(wanted), k=k)

    def deadlocked(self) -> Set[str]:
        """Graph reduction: the set of transactions that can never proceed.

        A waiting transaction is dischargeable when at least k of its wanted
        resources are *available* — free now, or held by a transaction that
        can itself finish.  Availability grows monotonically as transactions
        are discharged, so a fixpoint scan suffices.
        """
        held_by: Dict[str, Set[str]] = {}
        for resource, txn in self.holders.items():
            held_by.setdefault(txn, set()).add(resource)

        available: Set[str] = set()
        # Resources named anywhere but not currently held are free.
        named = set(self.holders)
        for wait in self.waits.values():
            named |= wait.wanted
        available |= {r for r in named if r not in self.holders}
        # Holders that are not waiting will finish and release.
        finished: Set[str] = set()
        for txn in held_by:
            if txn not in self.waits:
                finished.add(txn)
                available |= held_by[txn]

        progress = True
        while progress:
            progress = False
            for txn, wait in self.waits.items():
                if txn in finished:
                    continue
                # Resources the txn already holds count toward its quorum.
                reachable = wait.wanted & (available | held_by.get(txn, set()))
                if len(reachable) >= wait.k:
                    finished.add(txn)
                    available |= held_by.get(txn, set())
                    progress = True
        return {txn for txn in self.waits if txn not in finished}


@dataclass
class KofNReport:
    """One resource manager's local facts, plain sequence number."""

    reporter: str
    seq: int
    holders: Dict[str, str]
    waits: List[Tuple[str, Tuple[str, ...], int]]


class KofNMonitor:
    """Assembles reports from any number of managers; reduction on update.

    Pure state machine (feed it reports via :meth:`offer`); wrap it in a
    process + reporters exactly like :class:`repro.detect.waitfor`'s pair if
    distribution is needed — the tests drive both styles.
    """

    def __init__(self, on_deadlock: Optional[Callable[[Set[str]], None]] = None) -> None:
        self.on_deadlock = on_deadlock
        self._last_seq: Dict[str, int] = {}
        self._per_reporter: Dict[str, KofNReport] = {}
        self.deadlocks: List[Set[str]] = []

    def offer(self, report: KofNReport) -> Optional[Set[str]]:
        if report.seq <= self._last_seq.get(report.reporter, 0):
            return None  # stale / reordered
        self._last_seq[report.reporter] = report.seq
        self._per_reporter[report.reporter] = report
        state = KofNState()
        for rep in self._per_reporter.values():
            for resource, txn in rep.holders.items():
                state.hold(resource, txn)
            for txn, wanted, k in rep.waits:
                state.wait(txn, wanted, k)
        stuck = state.deadlocked()
        if stuck:
            self.deadlocks.append(stuck)
            if self.on_deadlock is not None:
                self.on_deadlock(stuck)
        return stuck or None
