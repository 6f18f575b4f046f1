"""Transactional substrate: the paper's recommended state-level machinery.

Section 4.3/4.4 argue that transactions — 2-phase locking for serialisation,
2-phase commit for atomic grouping, write-ahead logging for durability —
both *subsume* and *obviate* CATOCS for replicated-data and grouped-update
problems.  This package provides them:

- :mod:`repro.txn.locks` — shared/exclusive lock manager with strict 2PL and
  wait-for edge export (feeding the deadlock detectors of
  :mod:`repro.detect`).
- :mod:`repro.txn.wal` — write-ahead log over a simulated stable store, the
  durability CATOCS lacks.
- :mod:`repro.txn.server` / :mod:`repro.txn.coordinator` — distributed
  pessimistic transactions (2PL + 2PC) over the simulated network.
- :mod:`repro.txn.replication` — read-any/write-all-available replicated
  data with an availability list and recovery, the optimised transactional
  alternative to CATOCS-based replication (the HARP side of E09).
"""

from repro.txn.locks import LockManager, LockMode, LockRequestState
from repro.txn.wal import StableStorage, WriteAheadLog
from repro.txn.server import ResourceServer
from repro.txn.coordinator import Transaction, TransactionCoordinator, TxnResult
from repro.txn.replication import ReplicaServer, ReplicatedStoreClient

__all__ = [
    "LockManager",
    "LockMode",
    "LockRequestState",
    "WriteAheadLog",
    "StableStorage",
    "ResourceServer",
    "Transaction",
    "TransactionCoordinator",
    "TxnResult",
    "ReplicaServer",
    "ReplicatedStoreClient",
]
