"""Versioned state: logical clocks on the data itself.

Figure 2's hidden-channel anomaly disappears once "lot status" records carry
version numbers: any recipient can order update notifications by the version
of the state they describe, no matter what order the network delivers them.
The version counter is a *state-level* logical clock — it ticks on state
updates (writes), not on communication events, and it is durable because it
is stored with the state (the paper's closing argument for state clocks over
communication clocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class VersionedValue:
    """A value together with the state version that produced it."""

    key: str
    value: Any
    version: int


class VersionedStore:
    """Key-value store where every write advances a per-key version number.

    This is the "shared database" abstraction of Figure 2 — the hidden
    channel itself — and simultaneously the fix: its versions give recipients
    the semantic order the communication layer cannot see.
    """

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        self.write_count = 0
        self.watchers: List[Callable[[VersionedValue], None]] = []

    def write(self, key: str, value: Any) -> VersionedValue:
        """Store ``value`` under ``key``; returns the stamped record."""
        current = self._data.get(key)
        version = (current.version if current else 0) + 1
        record = VersionedValue(key=key, value=value, version=version)
        self._data[key] = record
        self.write_count += 1
        for watcher in self.watchers:
            watcher(record)
        return record

    def read(self, key: str) -> Optional[VersionedValue]:
        return self._data.get(key)

    def version(self, key: str) -> int:
        record = self._data.get(key)
        return record.version if record else 0

    def keys(self) -> List[str]:
        return list(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class PrescriptiveOrderer:
    """Recipient-side prescriptive ordering from version stamps.

    Consumes ``VersionedValue`` notifications in *arrival* order and exposes
    per-key state in *version* order: stale arrivals (version <= the latest
    already applied) are discarded, exactly the "communication system giving
    priority to the most recent updates (dropping older updates if
    necessary)" discipline of Section 4.6.  A recipient using this needs no
    delivery-order guarantee at all.
    """

    def __init__(self) -> None:
        self._latest: Dict[str, VersionedValue] = {}
        self.applied = 0
        self.discarded_stale = 0
        self.history: List[VersionedValue] = []

    def offer(self, record: VersionedValue) -> bool:
        """Apply a notification; returns True if it advanced the state."""
        current = self._latest.get(record.key)
        if current is not None and record.version <= current.version:
            self.discarded_stale += 1
            return False
        self._latest[record.key] = record
        self.applied += 1
        self.history.append(record)
        return True

    def current(self, key: str) -> Optional[VersionedValue]:
        return self._latest.get(key)

    def value(self, key: str, default: Any = None) -> Any:
        record = self._latest.get(key)
        return record.value if record is not None else default

    def observed_versions(self, key: str) -> List[int]:
        """Versions applied for ``key``, in application order.

        By construction this list is strictly increasing — the invariant the
        property-based tests check against arbitrary arrival orders.
        """
        return [r.version for r in self.history if r.key == key]
