"""The happens-before relation on timestamped events.

Section 2 extends happens-before to messages: m1 happens-before m2 if some
process sent or received m1 before sending m2, transitively closed.  With
vector timestamps the relation reduces to componentwise comparison; this
module provides the comparison vocabulary used across the test suite and the
anomaly checkers ("m3 and m4 are concurrent", Figure 1).
"""

from __future__ import annotations

import enum

from repro.ordering.dense import DenseVectorClock


class Ordering(enum.Enum):
    """Result of comparing two vector timestamps."""

    BEFORE = "before"          # a happens-before b
    AFTER = "after"            # b happens-before a
    EQUAL = "equal"            # same event (identical timestamps)
    CONCURRENT = "concurrent"  # causally unrelated


def compare(a: DenseVectorClock, b: DenseVectorClock) -> Ordering:
    """Classify the causal relationship between two vector timestamps."""
    a_le_b = a <= b
    b_le_a = b <= a
    if a_le_b and b_le_a:
        return Ordering.EQUAL
    if a_le_b:
        return Ordering.BEFORE
    if b_le_a:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def happens_before(a: DenseVectorClock, b: DenseVectorClock) -> bool:
    """True iff the event stamped ``a`` causally precedes the event stamped ``b``."""
    return compare(a, b) is Ordering.BEFORE


def concurrent(a: DenseVectorClock, b: DenseVectorClock) -> bool:
    """True iff neither event causally precedes the other."""
    return compare(a, b) is Ordering.CONCURRENT
