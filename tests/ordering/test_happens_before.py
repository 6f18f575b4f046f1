"""Unit tests for the happens-before comparison vocabulary, over the dict
clock oracle (the vocabulary needs only ``<=``)."""

from dict_clock import VectorClock

from repro.ordering import Ordering, compare, concurrent, happens_before


def test_compare_all_cases():
    a = VectorClock({"p": 1})
    b = VectorClock({"p": 2})
    c = VectorClock({"q": 1})
    assert compare(a, b) is Ordering.BEFORE
    assert compare(b, a) is Ordering.AFTER
    assert compare(a, a.copy()) is Ordering.EQUAL
    assert compare(a, c) is Ordering.CONCURRENT


def test_predicates():
    a = VectorClock({"p": 1})
    b = VectorClock({"p": 1, "q": 1})
    assert happens_before(a, b)
    assert not happens_before(b, a)
    assert concurrent(VectorClock({"p": 1}), VectorClock({"q": 1}))
