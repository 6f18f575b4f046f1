"""The byte model as a walk: the oracle for ``repro.sim.network.estimate_size``.

This is the function as it stood in ``src/repro/sim/network.py`` at commit
``23bd898``, before it became a per-type table: one ladder of questions asked
of every node of the payload, recursing through containers and ``vars()``.
``tests/sim/test_network.py`` holds the table to it, integer for integer.

One rung is new and is the only deliberate difference: an instance of a
``__slots__`` class with no ``__dict__`` used to fall through to the flat 8;
it is sized over the slots it has set, as its unslotted twin would be.
"""

from types import MemberDescriptorType
from typing import Any


def estimate_size(payload: Any) -> int:
    if hasattr(payload, "size_bytes"):
        return int(payload.size_bytes())
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="replace"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 8 + sum(estimate_size(k) + estimate_size(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(v) for v in payload)
    if hasattr(payload, "__dict__"):
        return 8 + estimate_size(vars(payload))
    # -- the one rung added since 23bd898 --
    slotted = [klass for klass in type(payload).__mro__ if "__slots__" in vars(klass)]
    if slotted:
        return 8 + estimate_size({
            name: getattr(payload, name)
            for klass in slotted
            for name, member in vars(klass).items()
            if isinstance(member, MemberDescriptorType) and hasattr(payload, name)
        })
    return 8
