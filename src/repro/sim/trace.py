"""Event tracing and ASCII event-diagram rendering.

The paper's Figures 1-4 are event diagrams: one column per process, time
advancing downward, send/receive events annotated.  :class:`EventTrace`
records events as protocols run, and :func:`render_event_diagram` reproduces
the figures' form so the experiment harness can print, e.g., the Figure 3
fire/fire-out anomaly exactly as the paper draws it.

The trace is one list, ``entries``, in record order; the filters below
scan it.  Nothing on a protocol's path reads them: they serve tests and
one-off inspection, and the delivery oracle (:mod:`repro.check`) reads
``entries`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(slots=True)
class TraceEntry:
    """One recorded event."""

    time: float
    pid: str
    kind: str  # "send", "recv", "deliver", "local", ...
    label: str
    msg_id: Optional[object] = None


class EventTrace:
    """An append-only log of process events."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []

    def record(
        self,
        time: float,
        pid: str,
        kind: str,
        label: str,
        msg_id: Optional[object] = None,
    ) -> None:
        self.entries.append(TraceEntry(time, pid, kind, label, msg_id))

    def for_pid(self, pid: str) -> List[TraceEntry]:
        """Entries recorded by ``pid``, in record order."""
        return [e for e in self.entries if e.pid == pid]

    def of_kind(self, kind: str) -> List[TraceEntry]:
        """Entries of one kind, in record order."""
        return [e for e in self.entries if e.kind == kind]

    def labels(self, pid: Optional[str] = None, kind: Optional[str] = None) -> List[str]:
        """Event labels in record order, optionally filtered."""
        return [
            e.label for e in self.entries
            if (pid is None or e.pid == pid) and (kind is None or e.kind == kind)
        ]

    def delivery_order(self, pid: str) -> List[str]:
        """Labels of messages delivered at ``pid``, in delivery order."""
        return self.labels(pid=pid, kind="deliver")

    def clear(self) -> None:
        self.entries.clear()


def render_event_diagram(
    trace: EventTrace,
    pids: Sequence[str],
    width: int = 26,
    title: str = "",
) -> str:
    """Render the trace as an ASCII event diagram (one column per process).

    Matches the layout of the paper's figures: columns are processes, rows
    advance in time, each cell shows ``kind: label``.  Entries at the same
    instant keep their trace insertion order (the sort is stable), which is
    the order the kernel actually executed them — sorting same-time rows by
    pid could draw an effect above its cause.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "".join(f"{pid:^{width}}" for pid in pids)
    lines.append(header)
    lines.append("".join(f"{'-' * (width - 2):^{width}}" for _ in pids))
    column = {pid: i for i, pid in enumerate(pids)}
    for entry in sorted(trace.entries, key=lambda e: e.time):
        if entry.pid not in column:
            continue
        cells = [" " * width] * len(pids)
        text = f"{entry.kind}: {entry.label}"
        if len(text) > width - 2:
            text = text[: width - 3] + "~"
        cells[column[entry.pid]] = f"{text:^{width}}"
        lines.append(f"t={entry.time:8.3f} " + "".join(cells))
    return "\n".join(lines)
