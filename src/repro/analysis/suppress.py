"""In-source suppression comments: ``# repro: ignore[rule-id]``.

Grammar (one comment per physical line, anywhere after code)::

    # repro: ignore[DET003]            suppress one rule on this line
    # repro: ignore[DET003, FLOW003]   suppress several rules
    # repro: ignore                    suppress every rule on this line

A finding at line ``L`` is suppressed when a matching comment sits on ``L``
itself or on the first line of the statement enclosing ``L`` (so a
suppression on a ``for`` header covers findings reported against its
multi-line iterable).  Suppressions are parsed lexically — they work in any
file the analyser reads, fixtures included.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Optional

#: line number -> frozenset of rule ids, or None meaning "all rules".
SuppressionMap = Dict[int, Optional[FrozenSet[str]]]

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?"
)


def parse_suppressions(text: str) -> SuppressionMap:
    """Scan source text for suppression comments, line by line.

    A plain string match is enough here: the marker is distinctive, and a
    suppression accidentally matched inside a string literal merely
    suppresses findings on a line the author explicitly wrote the marker
    on — a self-inflicted and greppable state of affairs.
    """
    table: SuppressionMap = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "repro:" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            ids = frozenset(
                token.strip().upper()
                for token in rules.split(",")
                if token.strip()
            )
            # ``# repro: ignore[]`` suppresses nothing rather than everything.
            if ids:
                table[lineno] = ids
    return table


def is_suppressed(
    table: SuppressionMap, rule_id: str, *lines: int
) -> bool:
    """True when any of ``lines`` carries a suppression covering ``rule_id``."""
    for lineno in lines:
        entry = table.get(lineno, _MISSING)
        if entry is _MISSING:
            continue
        if entry is None or rule_id.upper() in entry:  # type: ignore[operator]
            return True
    return False


_MISSING = object()
