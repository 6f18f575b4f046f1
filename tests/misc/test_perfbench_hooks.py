"""The benchmark tracer's hooks still name what the program defines.

``perfbench.trace`` wraps each ``(owner, attribute)`` by reading
``vars(owner)[attribute]``, so a hooked method that is deleted, renamed or
moved to a base class breaks the traced benchmark run.  This catches it in
the test suite rather than only in a benchmark run.
"""

from perfbench.trace import patched_attributes


def test_every_traced_attribute_is_defined_on_its_owner():
    hooks = patched_attributes()
    assert hooks
    missing = [(getattr(owner, "__qualname__", owner.__name__), name)
               for owner, name in hooks if name not in vars(owner)]
    assert missing == []
