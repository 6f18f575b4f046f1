"""Outside-in correctness oracles.

The benchmark never asks the stack whether it behaved: it records what each
member delivered (through the ordinary ``on_deliver`` callback) and decides
here, from first principles, whether that is what the stack spec claims.
The oracles run outside every timed region, on every slice.

An *operation* is one expected delivery: one (message, member) pair.  It
fails when it is missing at the horizon, delivered more than once, or
delivered out of the order the spec claims.  ``failed_share`` is
``failed / attempted``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

MsgId = Tuple[str, int]

#: Orders a spec may claim; each has one oracle below.
FIFO, CAUSAL, TOTAL = "fifo", "causal", "total"


@dataclass(frozen=True)
class Delivery:
    """One application delivery as seen from outside the stack."""

    sender: str
    seq: int
    #: the message's vector stamp (sender -> count), when the spec stamps one
    stamp: Optional[Mapping[str, int]] = None

    @property
    def msg_id(self) -> MsgId:
        return (self.sender, self.seq)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    #: failure kind -> count (missing, duplicate, unexpected, order, E07:FAIL)
    reasons: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] += count

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": dict(sorted(self.reasons.items())),
        }


def check_deliveries(
    sent: Mapping[str, int],
    logs: Mapping[str, Sequence[Delivery]],
    claims: Iterable[str],
) -> Verdict:
    """Judge one slice.

    ``sent[pid]`` is how many multicasts ``pid`` issued (sequence numbers
    run 1..n per sender); ``logs[pid]`` is what ``pid`` delivered, in
    delivery order; ``claims`` names the orders the spec promises.  Every
    delivery is charged at most one failure: a dropped delivery costs one,
    a swapped pair one (causal: the message that jumped its dependency) or
    two (total: both sit where the others have something else).
    """
    claimed: FrozenSet[str] = frozenset(claims)
    unknown = claimed - {FIFO, CAUSAL, TOTAL}
    if unknown:
        raise ValueError(f"unknown order claims: {sorted(unknown)}")
    expected = {(pid, seq) for pid, n in sent.items() for seq in range(1, n + 1)}
    verdict = Verdict(attempted=len(expected) * len(logs))

    # Exactly-once and completeness; what survives is each member's
    # sequence of first deliveries of expected messages.
    clean: Dict[str, List[Delivery]] = {}
    for pid, log in logs.items():
        seen: set = set()
        kept: List[Delivery] = []
        for delivery in log:
            mid = delivery.msg_id
            if mid not in expected:
                verdict.fail("unexpected")
            elif mid in seen:
                verdict.fail("duplicate")
            else:
                seen.add(mid)
                kept.append(delivery)
        verdict.fail("missing", len(expected) - len(seen))
        clean[pid] = kept

    bad: Dict[str, set] = {pid: set() for pid in logs}
    if FIFO in claimed or CAUSAL in claimed:
        for pid, kept in clean.items():
            bad[pid] |= _fifo_violations(kept)
    if CAUSAL in claimed:
        for pid, kept in clean.items():
            bad[pid] |= _causal_violations(kept)
    if TOTAL in claimed:
        for pid, ids in _total_violations(clean).items():
            bad[pid] |= ids
    for pid, ids in bad.items():
        if ids:
            verdict.fail("order", len(ids))
    return verdict


def _fifo_violations(kept: Sequence[Delivery]) -> set:
    """Deliveries that arrive after a later message of the same sender."""
    high: Dict[str, int] = {}
    out = set()
    for delivery in kept:
        if delivery.seq < high.get(delivery.sender, 0):
            out.add(delivery.msg_id)
        else:
            high[delivery.sender] = delivery.seq
    return out


def _causal_violations(kept: Sequence[Delivery]) -> set:
    """Deliveries made before something their vector stamp depends on.

    The stamp of message ``m`` from ``j`` counts, per sender, the multicasts
    that happened before ``m`` (its own component is its sequence number).
    Delivering ``m`` at a member that has so far delivered fewer than
    ``stamp[k]`` messages from some ``k != j`` breaks causal order.
    """
    delivered: Counter = Counter()
    out = set()
    for delivery in kept:
        stamp = delivery.stamp
        if stamp is None:
            raise ValueError(
                f"causal order claimed but {delivery.msg_id} carries no stamp"
            )
        for pid, count in stamp.items():
            if pid != delivery.sender and count > delivered[pid]:
                out.add(delivery.msg_id)
                break
        delivered[delivery.sender] += 1
    return out


def _total_violations(clean: Mapping[str, Sequence[Delivery]]) -> Dict[str, set]:
    """Deliveries that sit where most members have another message.

    Total order means identical delivery sequences.  Only messages every
    member delivered are compared (a missing one was already charged), and
    the agreed sequence is the position-wise majority, so one deviant
    member is charged for its own swaps rather than everyone else for
    disagreeing with it.
    """
    if not clean:
        return {}
    common = set.intersection(*({d.msg_id for d in kept} for kept in clean.values()))
    sequences = {
        pid: [d.msg_id for d in kept if d.msg_id in common]
        for pid, kept in clean.items()
    }
    out: Dict[str, set] = {pid: set() for pid in clean}
    for position in range(len(common)):
        column = Counter(seq[position] for seq in sequences.values())
        agreed, _ = max(column.items(), key=lambda item: (item[1], item[0]))
        for pid, seq in sequences.items():
            if seq[position] != agreed:
                out[pid].add(seq[position])
    return out


def check_verdicts(verdicts: Mapping[str, str], expected: Sequence[str]) -> Verdict:
    """Judge a suite pass: one operation per experiment, failed unless its
    verdict is ``pass`` (a missing experiment fails too)."""
    verdict = Verdict(attempted=len(expected))
    for name in expected:
        got = verdicts.get(name)
        if got != "pass":
            verdict.fail(f"{name}:{got}")
    return verdict
