"""Unit and property tests for the dict vector clock, the oracle the dense
clock's agreement suite trusts."""

from dict_clock import VectorClock
from hypothesis import given
from hypothesis import strategies as st

PIDS = ["p", "q", "r", "s"]

vc_strategy = st.dictionaries(
    st.sampled_from(PIDS), st.integers(min_value=0, max_value=20)
).map(VectorClock)


def test_zero_and_tick():
    vc = VectorClock.zero(["a", "b"])
    assert vc["a"] == 0 and vc["b"] == 0 and vc["missing"] == 0
    vc.tick("a")
    assert vc["a"] == 1


def test_copy_is_independent():
    vc = VectorClock({"a": 1})
    copy = vc.copy()
    copy.tick("a")
    assert vc["a"] == 1 and copy["a"] == 2


def test_merge_takes_componentwise_max():
    a = VectorClock({"p": 3, "q": 1})
    b = VectorClock({"q": 5, "r": 2})
    merged = a.merged(b)
    assert merged.as_dict() == {"p": 3, "q": 5, "r": 2}
    assert a["q"] == 1  # merged() does not mutate


def test_strict_order_and_concurrency():
    lo = VectorClock({"p": 1})
    hi = VectorClock({"p": 2, "q": 1})
    assert lo < hi and not hi < lo
    x = VectorClock({"p": 1})
    y = VectorClock({"q": 1})
    assert x.concurrent_with(y)
    assert not x.concurrent_with(x)


def test_equality_ignores_explicit_zeros():
    assert VectorClock({"p": 0, "q": 2}) == VectorClock({"q": 2})
    assert hash(VectorClock({"p": 0, "q": 2})) == hash(VectorClock({"q": 2}))


def test_size_bytes_counts_entries():
    vc = VectorClock({"p": 1, "quux": 2})
    assert vc.size_bytes() == (8 + 1) + (8 + 4)


@given(vc_strategy)
def test_reflexive_le(a: VectorClock):
    assert a <= a
    assert not a < a


@given(vc_strategy, vc_strategy)
def test_antisymmetry(a: VectorClock, b: VectorClock):
    if a <= b and b <= a:
        assert a == b


@given(vc_strategy, vc_strategy, vc_strategy)
def test_transitivity(a: VectorClock, b: VectorClock, c: VectorClock):
    if a <= b and b <= c:
        assert a <= c


@given(vc_strategy, vc_strategy)
def test_merge_is_least_upper_bound(a: VectorClock, b: VectorClock):
    m = a.merged(b)
    assert a <= m and b <= m
    # least: any other upper bound dominates m
    pids = set(a.as_dict()) | set(b.as_dict())
    for pid in pids:
        assert m[pid] == max(a[pid], b[pid])


@given(vc_strategy, vc_strategy)
def test_exactly_one_relation_holds(a: VectorClock, b: VectorClock):
    relations = [a == b, a < b, b < a, a.concurrent_with(b)]
    assert sum(bool(r) for r in relations) == 1


@given(vc_strategy, st.sampled_from(PIDS))
def test_tick_strictly_advances(a: VectorClock, pid: str):
    before = a.copy()
    a.tick(pid)
    assert before < a
