"""Unit tests for the happens-before comparison vocabulary, over the dict
clock oracle (the vocabulary needs only ``<=``)."""

from dict_clock import VectorClock

from repro.ordering import Ordering, compare, concurrent, happens_before
from repro.ordering.happens_before import is_causal_delivery_order


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


def test_is_causal_delivery_order_accepts_valid():
    m1 = VectorClock({"p": 1})
    m2 = VectorClock({"p": 1, "q": 1})
    m3 = VectorClock({"r": 1})
    assert is_causal_delivery_order([m1, m3, m2])
    assert is_causal_delivery_order([m3, m1, m2])


def test_is_causal_delivery_order_rejects_inversion():
    m1 = VectorClock({"p": 1})
    m2 = VectorClock({"p": 1, "q": 1})
    assert not is_causal_delivery_order([m2, m1])


def test_empty_and_singleton_orders_valid():
    assert is_causal_delivery_order([])
    assert is_causal_delivery_order([VectorClock({"p": 1})])
