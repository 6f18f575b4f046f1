"""One delivery oracle: judge a group run from its recorded history alone.

The properties are the broadcast ones of Aspnes' *Notes on Theory of
Distributed Systems*: validity (``missing``), ``agreement``, integrity
(``duplicate``, ``unexpected``), and the orders (``fifo``, ``causal``,
``total``) the spec's layers promise (:func:`repro.catocs.stack.guarantee`).
docs/PROTOCOLS.md, "How delivery is judged", states the rules.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.catocs.stack import ORDER_FIFO, ORDER_NAMES, guarantee
from repro.sim.trace import EventTrace


class Fault(NamedTuple):
    """One broken promise at one judged member.  ``other`` is the dependency
    not delivered first, or what the first judged member delivered instead."""

    reason: str
    pid: str
    msg_id: Hashable
    other: Optional[Hashable] = None


class Verdict(NamedTuple):
    claims: Tuple[str, ...]
    faults: Tuple[Fault, ...]

    @property
    def ok(self) -> bool:
        return not self.faults


def judge(trace: EventTrace, members: Iterable[str], spec: str) -> Verdict:
    """Judge the ``send``/``deliver`` entries of ``trace`` at the pids
    ``members`` by what ``spec`` claims: its top layer's order and every
    lattice level below it.  A message's causal past is what its sender had
    sent or delivered before sending it, transitively.  A message is required
    if a judged member sent or delivered it; only required messages are owed."""
    claims = tuple(ORDER_NAMES[level] for level in range(ORDER_FIFO, guarantee(spec).order + 1))
    sender: Dict[Hashable, str] = {}
    past: Dict[Hashable, Tuple[Hashable, ...]] = {}
    # pid -> what it has sent or delivered; dicts keep faults in history order
    known: Dict[str, Dict[Hashable, None]] = {}
    delivered: Dict[str, List[Hashable]] = {pid: [] for pid in members}
    for entry in trace.entries:
        seen = known.setdefault(entry.pid, {})
        if entry.kind == "send":
            sender[entry.msg_id] = entry.pid
            past[entry.msg_id] = tuple(seen)
            seen[entry.msg_id] = None
        elif entry.kind == "deliver":
            seen.update(dict.fromkeys((*past.get(entry.msg_id, ()), entry.msg_id)))
            if entry.pid in delivered:
                delivered[entry.pid].append(entry.msg_id)

    required = dict.fromkeys([m for m, pid in sender.items() if pid in delivered]
                             + [m for order in delivered.values() for m in order])
    faults: List[Fault] = []
    firsts: List[Tuple[str, Dict[Hashable, None]]] = []
    for pid, order in delivered.items():
        done: Dict[Hashable, None] = {}
        for msg_id in order:
            if msg_id in done:
                faults.append(Fault("duplicate", pid, msg_id))
                continue
            if msg_id not in sender:
                faults.append(Fault("unexpected", pid, msg_id))
            for dep in past.get(msg_id, ()):
                reason = "fifo" if sender.get(dep) == sender[msg_id] else "causal"
                if reason in claims and dep in required and dep not in done:
                    faults.append(Fault(reason, pid, msg_id, dep))
            done[msg_id] = None
        faults += [Fault("missing" if sender.get(m) in delivered else "agreement", pid, m)
                   for m in required if m not in done]
        firsts.append((pid, done))
    if "total" in claims and firsts:
        reference = firsts[0][1]
        for pid, done in firsts[1:]:
            pairs = zip((m for m in reference if m in done), (m for m in done if m in reference))
            faults += [Fault("total", pid, got, want) for want, got in pairs if want != got][:1]
    return Verdict(claims, tuple(faults))
