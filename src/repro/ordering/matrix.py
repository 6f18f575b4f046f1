"""Matrix clocks.

A matrix clock tracks, for each process pair (i, j), how far process i is
known to have advanced from j's perspective.  CATOCS stability tracking needs
exactly this: a message sent by ``p`` with sequence ``s`` is *stable* when
every member's known receive vector covers ``(p, s)``.  The matrix is the
"amount of state maintained by the communication system" whose growth
Section 5 worries about — it is quadratic in group size by construction.

The quadratic part is the storage, not the work per message.  Membership is
fixed for the matrix's lifetime (a view change rebuilds the whole matrix),
so the matrix *maintains* the stable frontier — each column's minimum, and
how many rows sit exactly at it — instead of deriving it from all N^2
entries on demand.  ``update_row`` and ``set_component`` run on every
receipt inside the transport and touch only the entries they are given; a
column is rescanned (O(N)) only when the last row at its minimum leaves it,
which is the only event that can move the frontier, and the column goes in
``moved`` so a reader sweeps only the columns that moved.  ``frontier`` is
the maintained minimum, read in place; ``min_vector`` copies it.

Rows remember every subject they are told about, members or not (a repair
request may ask what a peer holds of a departed sender's messages); the
frontier covers the membership columns only.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.sim.network import counts_size


class MatrixClock:
    """One row per process: what we believe each process has seen."""

    __slots__ = ("_rows", "frontier", "_ties", "moves", "moved")

    def __init__(self, pids: Iterable[str]) -> None:
        members = list(pids)
        self._rows: Dict[str, Dict[str, int]] = {
            pid: dict.fromkeys(members, 0) for pid in members
        }
        #: the stable frontier: per member column, the minimum over all rows.
        #: Readers on the receipt path read it in place; only the matrix
        #: writes it
        self.frontier: Dict[str, int] = dict.fromkeys(self._rows, 0)
        #: per member column, how many rows sit exactly at the minimum
        self._ties: Dict[str, int] = dict.fromkeys(self._rows, len(self._rows))
        #: times the frontier has advanced; lets a reader that remembers the
        #: value skip work while the frontier stands still
        self.moves = 0
        #: the columns whose minimum moved since the reader that sweeps on
        #: them last cleared the set; at most one entry per member column
        self.moved: Set[str] = set()

    @property
    def pids(self):
        return tuple(self._rows)

    def row(self, pid: str) -> Dict[str, int]:
        """The counts we believe ``pid`` has reached, as a dict snapshot
        (the frontier is derived state, so rows change only through the
        matrix).  A subject never heard of is absent: read ``.get(s, 0)``."""
        return dict(self._rows[pid])

    def update_row(self, pid: str, counts) -> None:
        """Merge fresher knowledge about ``pid``'s progress.

        ``counts`` is anything with a pid -> count ``items()``: a wire ack
        vector, a data message's stamp read in place, or the dedup layer's
        contiguous counts.
        Unknown observers are ignored: after a membership change, straggler
        traffic from a departed (but still running) member must not crash
        or distort the rebuilt matrix.
        """
        row = self._rows.get(pid)
        if row is None:
            return
        known = row.get
        frontier = self.frontier.get
        ties = self._ties
        for subject, count in counts.items():
            old = known(subject, 0)
            if count > old:
                row[subject] = count
                if old == frontier(subject):  # None for a non-member subject
                    # This row rose off the column minimum: one tie fewer,
                    # and the column is read again only when none is left.
                    left = ties[subject] - 1
                    if left:
                        ties[subject] = left
                    else:
                        self._rescan(subject)

    def covers(self, pid: str, wanted: Iterable[Tuple[str, int]]) -> bool:
        """True iff ``pid``'s row holds every ``(subject, seq)`` in
        ``wanted``: ``row(pid)`` read in place, without the copy."""
        known = self._rows[pid].get
        return all(known(s, 0) >= q for s, q in wanted)

    def set_component(self, observer: str, subject: str, count: int) -> None:
        """Record that ``observer`` has seen ``subject``'s first ``count`` events."""
        row = self._rows.get(observer)
        if row is None:
            return
        old = row.get(subject, 0)
        if count > old:
            row[subject] = count
            if old == self.frontier.get(subject):
                left = self._ties[subject] - 1
                if left:
                    self._ties[subject] = left
                else:
                    self._rescan(subject)

    def _rescan(self, subject: str) -> None:
        """The last row at ``subject``'s column minimum rose off it: read
        the column again, and the frontier moves."""
        column = [row[subject] for row in self._rows.values()]
        low = self.frontier[subject] = min(column)
        self._ties[subject] = column.count(low)
        self.moves += 1
        self.moved.add(subject)

    def min_vector(self) -> Dict[str, int]:
        """Componentwise minimum over all rows, one entry per member, as a
        dict snapshot: events known seen by *everyone*.

        An event covered by this vector is stable — safe to discard from
        atomic-delivery buffers.
        """
        return dict(self.frontier)

    def size_bytes(self) -> int:
        """Storage footprint: N vector clocks of N entries — O(N^2)."""
        return sum(map(counts_size, self._rows.values()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows = "; ".join(f"{pid}->{row!r}" for pid, row in self._rows.items())
        return f"MatrixClock({rows})"
