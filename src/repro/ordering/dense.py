"""Dense (int-indexed) vector clocks for fixed group membership.

The dict-shaped :class:`~repro.ordering.vector.VectorClock` is the right
reference implementation — open membership, explicit entries — but it is the
wrong hot-path representation: every causal multicast copies a dict on send
and walks dict items on every deliverability check.  The related causal
broadcast literature (Nédelec et al.; Almeida's hybrid buffering) gets its
scalability wins by exploiting the fact that group membership is *fixed
between view changes*: map each pid to a small integer once, and a timestamp
becomes a flat array of ints.

Two pieces:

- :class:`ClockDomain` — an append-only pid -> index mapping, shared by
  every clock of one group (all members of a group resolve the same domain
  through their simulator, so cross-member comparisons hit the array fast
  path).  Membership changes only ever *extend* the domain; indices are
  stable for the lifetime of the simulation.

- :class:`DenseVectorClock` — the same API as :class:`VectorClock`
  (``tick``/``merge_in``/``advance``/comparisons/``size_bytes``) backed by a
  list of ints.  ``copy()`` is O(1): it returns a *frozen snapshot* sharing
  the underlying array, and either side re-materialises the array only on
  its next mutation (copy-on-write).  The snapshot a sender attaches to an
  outgoing message is never mutated, so the per-send cost collapses from
  "copy a dict" to "share a reference".

Mixed-implementation operations (dense vs dict, or dense clocks from
different domains) fall back to the generic pid-keyed path, so the two
representations are interchangeable — the hypothesis suite asserts they
agree on ``compare``/``dominates``/``merge`` over random histories.
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


def group_domain(sim: object, group: str, pids) -> ClockDomain:
    """The shared :class:`ClockDomain` for ``group`` on ``sim``.

    All members of a group run on one simulator, so hanging the registry off
    the simulator gives every member (and every message stamped by any of
    them) the same domain object — which is what makes cross-member clock
    comparisons hit the same-domain array fast path.  Scoping to the
    simulator (not a process-global cache) keeps experiments independent:
    an experiment sees exactly the domains it built, whatever ran before it
    in the same process.
    """
    registry: Optional[Dict[str, ClockDomain]] = getattr(sim, "_clock_domains", None)
    if registry is None:
        registry = {}
        try:
            sim._clock_domains = registry  # type: ignore[attr-defined]
        except AttributeError:  # exotic stub with __slots__: private domain
            return ClockDomain(tuple(pids))
    domain = registry.get(group)
    if domain is None:
        domain = registry[group] = ClockDomain(tuple(pids))
    else:
        for pid in pids:
            domain.ensure(pid)
    return domain


class DenseVectorClock:
    """Array-backed vector clock over a :class:`ClockDomain`.

    Drop-in for :class:`~repro.ordering.vector.VectorClock` wherever the
    membership universe is a domain.  Zero entries are explicit (like
    ``VectorClock.zero``); equality and hashing ignore them, so a dense
    clock equals the dict clock holding the same non-zero counts.
    """

    __slots__ = ("_domain", "_counts", "_shared")

    def __init__(self, domain: ClockDomain, counts: Optional[List[int]] = None) -> None:
        self._domain = domain
        self._counts: List[int] = [0] * len(domain) if counts is None else counts
        #: True while ``_counts`` may be aliased by a frozen snapshot; the
        #: next mutation re-materialises a private array first.
        self._shared = False

    @property
    def domain(self) -> ClockDomain:
        return self._domain

    # -- snapshots (the allocation-free copy-on-send) --------------------------

    def copy(self) -> "DenseVectorClock":
        """O(1) frozen snapshot: shares the array until either side mutates."""
        self._shared = True
        twin = DenseVectorClock(self._domain, self._counts)
        twin._shared = True
        return twin

    def _materialize(self) -> List[int]:
        if self._shared:
            self._counts = list(self._counts)
            self._shared = False
        return self._counts

    def stamped(self, pid: str) -> "DenseVectorClock":
        """A send timestamp: this clock with ``pid`` ticked, as a new clock.

        One array copy and no aliasing — unlike ``copy()`` + ``tick()``,
        which would leave *this* clock flagged shared and force every later
        ``advance`` on it to re-materialise.  This is the per-multicast
        path, so the known-pid case is inlined (no ``ensure``/``__init__``
        call overhead).
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
        twin._shared = False
        return twin

    # -- access ----------------------------------------------------------------

    def __getitem__(self, pid: str) -> int:
        idx = self._domain.index(pid)
        if idx is None or idx >= len(self._counts):
            return 0
        return self._counts[idx]

    def __iter__(self) -> Iterator[str]:
        return iter(self._domain.pids[: len(self._counts)])

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        return list(zip(self._domain.pids, self._counts))

    def as_dict(self) -> Dict[str, int]:
        """Non-zero components only (a dense clock tracks the whole domain,
        so explicit zeros carry no information — equality ignores them)."""
        return {
            pid: count
            for pid, count in zip(self._domain.pids, self._counts)
            if count
        }

    # -- events ----------------------------------------------------------------

    def tick(self, pid: str) -> "DenseVectorClock":
        idx = self._domain.ensure(pid)
        counts = self._materialize()
        if idx >= len(counts):
            counts.extend([0] * (idx + 1 - len(counts)))
        counts[idx] += 1
        return self

    def advance(self, pid: str, count: int) -> "DenseVectorClock":
        """Raise ``pid``'s component to at least ``count`` (single-entry merge).

        The per-delivery path: the known-pid, unshared-array case (the
        steady state) is a dict lookup and one list store.
        """
        counts = self._counts
        idx = self._domain._index.get(pid)
        if idx is not None and idx < len(counts):
            if counts[idx] >= count:
                return self
            if not self._shared:
                counts[idx] = count
                return self
        else:
            idx = self._domain.ensure(pid)
        counts = self._materialize()
        if idx >= len(counts):
            counts.extend([0] * (idx + 1 - len(counts)))
        if count > counts[idx]:
            counts[idx] = count
        return self

    def merge_in(self, other) -> "DenseVectorClock":
        """Componentwise max with ``other`` (clock or plain mapping)."""
        if isinstance(other, DenseVectorClock) and other._domain is self._domain:
            theirs = other._counts
            if any(theirs[i] > c for i, c in enumerate(self._counts[: len(theirs)])) \
                    or len(theirs) > len(self._counts):
                counts = self._materialize()
                if len(theirs) > len(counts):
                    counts.extend([0] * (len(theirs) - len(counts)))
                for i, value in enumerate(theirs):
                    if value > counts[i]:
                        counts[i] = value
            return self
        for pid, count in other.items():
            if count > self[pid]:
                self.advance(pid, count)
        return self

    def merged(self, other) -> "DenseVectorClock":
        return self.copy().merge_in(other)

    # -- comparison (the happens-before partial order) --------------------------

    def _pair(self, other) -> Optional[Tuple[List[int], List[int]]]:
        if isinstance(other, DenseVectorClock) and other._domain is self._domain:
            return self._counts, other._counts
        return None

    def __eq__(self, other: object) -> bool:
        pair = self._pair(other)
        if pair is not None:
            mine, theirs = pair
            shorter = min(len(mine), len(theirs))
            return (mine[:shorter] == theirs[:shorter]
                    and not any(mine[shorter:])
                    and not any(theirs[shorter:]))
        if not hasattr(other, "items") or not hasattr(other, "__getitem__"):
            return NotImplemented
        pids = set(self._domain.pids[: len(self._counts)])
        pids.update(other)  # type: ignore[arg-type]
        return all(self[p] == other[p] for p in pids)  # type: ignore[index]

    def __hash__(self) -> int:
        return hash(frozenset(
            (pid, count)
            for pid, count in zip(self._domain.pids, self._counts)
            if count
        ))

    def __le__(self, other) -> bool:
        pair = self._pair(other)
        if pair is not None:
            mine, theirs = pair
            if len(mine) <= len(theirs):
                return all(a <= b for a, b in zip(mine, theirs))
            return (all(a <= b for a, b in zip(mine, theirs))
                    and not any(mine[len(theirs):]))
        pids = set(self._domain.pids[: len(self._counts)])
        pids.update(other)
        return all(self[p] <= other[p] for p in pids)

    def __lt__(self, other) -> bool:
        return self <= other and not self == other

    def __ge__(self, other) -> bool:
        return other <= self

    def __gt__(self, other) -> bool:
        return other <= self and not other == self

    def concurrent_with(self, other) -> bool:
        return not self <= other and not other <= self

    # -- cost accounting ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Wire size under the same pair-encoding model as ``VectorClock``."""
        return counts_size(self._domain.pids[: len(self._counts)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(
            f"{p}:{c}" for p, c in sorted(zip(self._domain.pids, self._counts))
        )
        return f"DVC({inner})"


def bss_deliverable(vc, delivered, sender: str) -> bool:
    """The Birman-Schiper-Stephenson deliverability test.

    ``vc[sender] == delivered[sender] + 1`` and ``vc[k] <= delivered[k]``
    for every other component.  Array fast path when both clocks are dense
    over one domain (the steady state inside a group); generic pid-keyed
    fallback otherwise.
    """
    if (isinstance(vc, DenseVectorClock) and isinstance(delivered, DenseVectorClock)
            and vc._domain is delivered._domain):
        idx = vc._domain.index(sender)
        mine = vc._counts
        seen = delivered._counts
        n_seen = len(seen)
        sender_count = mine[idx] if idx is not None and idx < len(mine) else 0
        sender_seen = seen[idx] if idx is not None and idx < n_seen else 0
        if sender_count != sender_seen + 1:
            return False
        for i, count in enumerate(mine):
            if count and i != idx and count > (seen[i] if i < n_seen else 0):
                return False
        return True
    if vc[sender] != delivered[sender] + 1:
        return False
    for pid, count in vc.items():
        if pid != sender and count > delivered[pid]:
            return False
    return True
