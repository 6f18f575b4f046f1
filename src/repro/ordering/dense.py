"""Vector clocks, int-indexed over a group's fixed membership.

The timestamp CATOCS causal multicast piggybacks on every message ("the
vector clock" [4]): process id -> event count, whose componentwise partial
order coincides with happens-before.  That makes it both the enforcement
mechanism for causal delivery and, per Sections 3.4 and 5, a per-message
overhead that grows linearly with group size.

Group membership is *fixed between view changes* (the observation the
causal broadcast literature builds on: Nédelec et al.; Almeida's hybrid
buffering), so each pid maps to a small integer once and a timestamp is a
flat array of ints.  Two pieces:

- :class:`ClockDomain` — an append-only pid -> index mapping, shared by
  every clock of one group.  Every member of a group resolves the same
  domain through :func:`group_domain`, and a wire stamp decodes straight
  into the receiver's domain (:mod:`repro.runtime.codec`), so comparisons
  are always two arrays over one index.  Membership changes only ever
  *extend* the domain; indices are stable for its lifetime.

- :class:`DenseVectorClock` — the clock: ``stamped`` for a send,
  ``advance``/``merge_in`` for receipts, ``==``/``<=`` for the partial
  order, ``size_bytes`` for the wire cost.  Clocks of different domains do
  not compare: that raises ``TypeError`` rather than walking pids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.sim.network import counts_size


class ClockDomain:
    """Append-only pid -> index mapping shared by one group's dense clocks.

    Indices are assigned in first-seen order and never change; a domain may
    grow (a joiner after a view change) but never shrinks, so arrays built
    against an older, shorter domain stay valid — missing tail entries read
    as zero.
    """

    __slots__ = ("pids", "_index")

    def __init__(self, pids: Tuple[str, ...] = ()) -> None:
        self.pids: List[str] = []
        self._index: Dict[str, int] = {}
        for pid in pids:
            self.ensure(pid)

    def ensure(self, pid: str) -> int:
        """Index of ``pid``, allocating the next slot if unseen."""
        idx = self._index.get(pid)
        if idx is None:
            idx = self._index[pid] = len(self.pids)
            self.pids.append(pid)
        return idx

    def index(self, pid: str) -> Optional[int]:
        return self._index.get(pid)

    def __len__(self) -> int:
        return len(self.pids)

    def __contains__(self, pid: str) -> bool:
        return pid in self._index

    # -- clock constructors ---------------------------------------------------

    def zero(self) -> "DenseVectorClock":
        """A clock with an explicit zero entry for every current member."""
        return DenseVectorClock(self, [0] * len(self.pids))

    def clock(self, counts: Mapping[str, int]) -> "DenseVectorClock":
        """A clock from a pid -> count mapping (extends the domain if needed)."""
        arr = [0] * len(self.pids)
        for pid, count in counts.items():
            idx = self.ensure(pid)
            if idx >= len(arr):
                arr.extend([0] * (idx + 1 - len(arr)))
            arr[idx] = count
        return DenseVectorClock(self, arr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClockDomain({self.pids!r})"


def group_domain(sim: object, group: str, pids=()) -> ClockDomain:
    """The shared :class:`ClockDomain` for ``group`` on ``sim``, extended by
    ``pids``.

    All members of a group run on one simulator (or one socket host's
    clock), so hanging the registry off it gives every member, and every
    stamp decoded there, the same domain object.  Scoping to the simulator
    (not a process-global cache) keeps experiments independent: an
    experiment sees exactly the domains it built, whatever ran before it in
    the same process.  ``sim`` must accept a ``_clock_domains`` attribute
    (:class:`~repro.sim.kernel.Simulator` declares the slot).
    """
    registry: Optional[Dict[str, ClockDomain]] = getattr(sim, "_clock_domains", None)
    if registry is None:
        registry = sim._clock_domains = {}  # type: ignore[attr-defined]
    domain = registry.get(group)
    if domain is None:
        domain = registry[group] = ClockDomain(tuple(pids))
    else:
        for pid in pids:
            domain.ensure(pid)
    return domain


class DenseVectorClock:
    """Array-backed vector clock over a :class:`ClockDomain`.

    Zero entries are explicit; equality ignores them, so two clocks with
    the same non-zero counts are equal whatever length their arrays have.
    """

    __slots__ = ("_domain", "_counts")

    def __init__(self, domain: ClockDomain, counts: List[int]) -> None:
        self._domain = domain
        self._counts = counts

    def stamped(self, pid: str) -> "DenseVectorClock":
        """A send timestamp: this clock with ``pid`` ticked, as a new clock.

        One array copy, never shared with this clock.  This is the
        per-multicast path, so the known-pid case is inlined (no
        ``ensure``/``__init__`` call overhead).
        """
        counts = list(self._counts)
        idx = self._domain._index.get(pid)
        if idx is None or idx >= len(counts):
            idx = self._domain.ensure(pid)
            if idx >= len(counts):
                counts.extend([0] * (idx + 1 - len(counts)))
        counts[idx] += 1
        twin = DenseVectorClock.__new__(DenseVectorClock)
        twin._domain = self._domain
        twin._counts = counts
        return twin

    # -- access ----------------------------------------------------------------

    def __getitem__(self, pid: str) -> int:
        idx = self._domain.index(pid)
        if idx is None or idx >= len(self._counts):
            return 0
        return self._counts[idx]

    def __iter__(self) -> Iterator[str]:
        return iter(self._domain.pids[: len(self._counts)])

    def as_dict(self) -> Dict[str, int]:
        """Non-zero components only (a dense clock tracks the whole domain,
        so explicit zeros carry no information — equality ignores them)."""
        return {
            pid: count
            for pid, count in zip(self._domain.pids, self._counts)
            if count
        }

    # -- events ----------------------------------------------------------------

    def advance(self, pid: str, count: int) -> "DenseVectorClock":
        """Raise ``pid``'s component to at least ``count`` (single-entry merge).

        The per-delivery path: the known-pid case (the steady state) is a
        dict lookup and one list store.
        """
        counts = self._counts
        idx = self._domain._index.get(pid)
        if idx is None or idx >= len(counts):
            idx = self._domain.ensure(pid)
            if idx >= len(counts):
                counts.extend([0] * (idx + 1 - len(counts)))
        if count > counts[idx]:
            counts[idx] = count
        return self

    def merge_in(self, counts: Mapping[str, int]) -> "DenseVectorClock":
        """Componentwise max with a pid -> count mapping (a joiner's
        flushed counts)."""
        for pid, count in counts.items():
            self.advance(pid, count)
        return self

    # -- comparison (the happens-before partial order) --------------------------

    def _peer(self, other: "DenseVectorClock") -> List[int]:
        """``other``'s array, which must index this clock's domain."""
        if type(other) is not DenseVectorClock or other._domain is not self._domain:
            raise TypeError("only vector clocks of one clock domain compare")
        return other._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseVectorClock):
            return NotImplemented
        mine, theirs = self._counts, self._peer(other)
        shorter = min(len(mine), len(theirs))
        return (mine[:shorter] == theirs[:shorter]
                and not any(mine[shorter:])
                and not any(theirs[shorter:]))

    def __le__(self, other: "DenseVectorClock") -> bool:
        """True iff every component of self is <= other's."""
        mine, theirs = self._counts, self._peer(other)
        return (all(a <= b for a, b in zip(mine, theirs))
                and not any(mine[len(theirs):]))

    # -- cost accounting ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Wire size: one (pid, counter) pair per tracked process.

        8 bytes per counter plus the pid string — the linear-in-N header
        overhead measured in experiment E07.
        """
        return counts_size(self._domain.pids[: len(self._counts)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(
            f"{p}:{c}" for p, c in sorted(zip(self._domain.pids, self._counts))
        )
        return f"DVC({inner})"


def bss_deliverable(vc: DenseVectorClock, delivered: DenseVectorClock, sender: str) -> bool:
    """The Birman-Schiper-Stephenson deliverability test.

    ``vc[sender] == delivered[sender] + 1`` and ``vc[k] <= delivered[k]``
    for every other component, as one pass over two arrays of one domain.
    """
    mine = delivered._peer(vc)
    seen = delivered._counts
    idx = delivered._domain.index(sender)
    n_seen = len(seen)
    sender_count = mine[idx] if idx is not None and idx < len(mine) else 0
    sender_seen = seen[idx] if idx is not None and idx < n_seen else 0
    if sender_count != sender_seen + 1:
        return False
    for i, count in enumerate(mine):
        if count and i != idx and count > (seen[i] if i < n_seen else 0):
            return False
    return True
