"""Logical time: vector and matrix clocks; happens-before; causal graphs.

These are the "communication clocks" of Lamport's model [16] that CATOCS
builds on, plus the :class:`CausalGraph` structure used to measure the
Section 5 claim that the active causal graph's arcs — and hence buffering —
grow quadratically with group size.
"""

from repro.ordering.dense import ClockDomain, DenseVectorClock, bss_deliverable, group_domain
from repro.ordering.matrix import MatrixClock
from repro.ordering.happens_before import (
    Ordering,
    compare,
    concurrent,
    happens_before,
)
from repro.ordering.causal_graph import CausalGraph

__all__ = [
    "ClockDomain",
    "DenseVectorClock",
    "bss_deliverable",
    "group_domain",
    "MatrixClock",
    "Ordering",
    "compare",
    "concurrent",
    "happens_before",
    "CausalGraph",
]
