"""Queries and corner cases of the state-level alternatives: the tracker's
latest datum, a smoother whose readings have all aged out, the versioned
store's key list, and a dependency diamond in the order-preserving cache."""

from repro.statelevel import (
    DependencyTracker,
    OrderPreservingCache,
    SensorSmoother,
    Stamped,
    TimestampedReading,
    VersionedStore,
)


def test_latest_is_the_newest_accepted_datum_and_ignores_stale_offers():
    tracker = DependencyTracker()
    assert tracker.latest("option") is None
    newer = Stamped("option", 2, 26.0)
    tracker.offer(newer)
    assert tracker.offer(Stamped("option", 1, 25.5)) == "stale"
    assert tracker.latest("option") is newer
    assert tracker.latest("theo") is None


def test_smoother_holds_the_last_reading_once_all_have_aged_out():
    smoother = SensorSmoother(window=10.0)
    smoother.offer(TimestampedReading("s1", 4.0, timestamp=0.0))
    smoother.offer(TimestampedReading("s2", 6.0, timestamp=5.0))
    assert smoother.estimate(now=5.0) == 5.0
    # Nothing lies within the window of `now`: hold the newest arrival.
    assert smoother.estimate(now=100.0) == 6.0


def test_reading_size_counts_the_encoded_source_name():
    assert TimestampedReading("s", 1.0, 0.0).size_bytes() == 17
    assert TimestampedReading("öfen", 1.0, 0.0).size_bytes() == 16 + 5


def test_store_keys_list_each_written_key_once_in_first_write_order():
    store = VersionedStore()
    assert store.keys() == []
    store.write("b", 1)
    store.write("a", 1)
    store.write("b", 2)
    assert store.keys() == ["b", "a"]
    assert "a" in store and "c" not in store


def test_a_dependency_diamond_surfaces_each_item_once_in_dependency_order():
    """``w`` waits on ``a`` and ``b``; ``a`` itself waits on ``b``.  When
    ``b`` arrives it releases ``a``, which releases ``w`` — and ``w``, also
    registered as ``b``'s waiter, must not surface a second time."""
    cache = OrderPreservingCache()
    assert cache.insert("w", "W", deps=("a", "b")) == []
    assert cache.insert("a", "A", deps=("b",)) == []
    surfaced = cache.insert("b", "B")
    assert [e.item_id for e in surfaced] == ["b", "a", "w"]
    assert [e.item_id for e in cache.surfaced_log] == ["b", "a", "w"]
    assert not any(e.out_of_order for e in surfaced)
