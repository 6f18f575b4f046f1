"""Global predicate evaluation without (and with) CATOCS.

Section 4.2 and Appendix 9.2 of the paper: stable-predicate detection —
deadlock, termination, orphans — is the one problem class where CATOCS-based
solutions are elegant, and the paper's counter is that (a) they require
CATOCS on *every* message, not just detection traffic, and (b) the important
subclasses are solvable with cheaper state-level protocols.  This package
implements both sides:

- :mod:`repro.detect.waitfor` — wait-for graphs with cycle detection, and the
  paper's detector: each node multicasts its local wait-for edges (any order,
  plain sequence numbers) to monitors; only true deadlocks are reported.
- :mod:`repro.detect.checkpoint` — periodic coordinated checkpointing
  (Elnozahy-style), the state-level alternative for full consistent cuts.
- :mod:`repro.detect.rpc` / :mod:`repro.detect.rpc_deadlock` — an RPC
  substrate with blocking calls plus the two RPC-deadlock detectors of
  Appendix 9.2: van Renesse's causal-multicast detector and the paper's
  instance-id periodic wait-for alternative.
"""

from repro.detect.waitfor import (
    DeadlockMonitor,
    WaitForGraph,
    WaitForReport,
    WaitForReporter,
)
from repro.detect.checkpoint import CheckpointCoordinator, CheckpointParticipant
from repro.detect.rpc import Call, Reply, RpcProcess, Work
from repro.detect.rpc_deadlock import (
    CausalRpcDeadlockDetector,
    PeriodicRpcDeadlockDetector,
)

__all__ = [
    "WaitForGraph",
    "WaitForReport",
    "WaitForReporter",
    "DeadlockMonitor",
    "CheckpointCoordinator",
    "CheckpointParticipant",
    "RpcProcess",
    "Call",
    "Reply",
    "Work",
    "CausalRpcDeadlockDetector",
    "PeriodicRpcDeadlockDetector",
]
