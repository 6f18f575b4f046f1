"""The dict-backed vector clock: the test oracle for the dense clock.

A vector clock maps process ids to event counts; the componentwise partial
order coincides exactly with happens-before.  This is the textbook shape —
open membership, explicit entries, every operation a walk over pids — and
it is kept only as the reference the hypothesis suites hold
:class:`repro.ordering.dense.DenseVectorClock` to.  No production code
imports it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional

from repro.sim.network import counts_size


class VectorClock:
    """An immutable-by-convention mapping of process id -> event count.

    Mutating operations (:meth:`tick`, :meth:`merge_in`) modify in place;
    :meth:`copy` produces an independent snapshot.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        self._counts: Dict[str, int] = dict(counts or {})

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, pids: Iterable[str]) -> "VectorClock":
        """A clock with an explicit zero entry for each group member."""
        return cls({pid: 0 for pid in pids})

    def copy(self) -> "VectorClock":
        return VectorClock(self._counts)

    def stamped(self, pid: str) -> "VectorClock":
        """A send timestamp: this clock with ``pid`` ticked, as a new clock."""
        return self.copy().tick(pid)

    # -- access --------------------------------------------------------------

    def __getitem__(self, pid: str) -> int:
        return self._counts.get(pid, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        return self._counts.items()

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    # -- events --------------------------------------------------------------

    def tick(self, pid: str) -> "VectorClock":
        """Advance ``pid``'s component (a send or local event).  Returns self."""
        self._counts[pid] = self._counts.get(pid, 0) + 1
        return self

    def advance(self, pid: str, count: int) -> "VectorClock":
        """Raise ``pid``'s component to at least ``count`` (single-entry merge)."""
        if count > self._counts.get(pid, 0):
            self._counts[pid] = count
        return self

    def merge_in(self, other: "VectorClock") -> "VectorClock":
        """Componentwise max with ``other`` (the receive-event rule)."""
        for pid, count in other.items():
            if count > self._counts.get(pid, 0):
                self._counts[pid] = count
        return self

    def merged(self, other: "VectorClock") -> "VectorClock":
        return self.copy().merge_in(other)

    # -- comparison (the happens-before partial order) ------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        pids = set(self._counts) | set(other._counts)
        return all(self[p] == other[p] for p in pids)

    def __hash__(self) -> int:
        return hash(frozenset((p, c) for p, c in self._counts.items() if c))

    def __le__(self, other: "VectorClock") -> bool:
        """True iff every component of self is <= other's."""
        pids = set(self._counts) | set(other._counts)
        return all(self[p] <= other[p] for p in pids)

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict happens-before: <= and not equal."""
        return self <= other and self != other

    def __ge__(self, other: "VectorClock") -> bool:
        return other <= self

    def __gt__(self, other: "VectorClock") -> bool:
        return other < self

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock dominates: the events are causally unrelated."""
        return not self <= other and not other <= self

    # -- cost accounting ------------------------------------------------------

    def size_bytes(self) -> int:
        """Wire size: one (pid, counter) pair per tracked process."""
        return counts_size(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{p}:{c}" for p, c in sorted(self._counts.items()))
        return f"VC({inner})"


def bss_deliverable(vc: VectorClock, delivered: VectorClock, sender: str) -> bool:
    """The Birman-Schiper-Stephenson test, walked pid by pid:
    ``vc[sender] == delivered[sender] + 1`` and ``vc[k] <= delivered[k]``
    for every other ``k``."""
    if vc[sender] != delivered[sender] + 1:
        return False
    return all(count <= delivered[pid] for pid, count in vc.items() if pid != sender)
