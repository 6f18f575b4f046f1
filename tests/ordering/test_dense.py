"""Unit and property tests for the dense (int-indexed) vector clock.

The headline property: over arbitrary event histories, a dense clock and the
dict clock oracle (:mod:`dict_clock`) fed the same operations agree on every
observable — compare, dominance, merge results, equality and the BSS
deliverability predicate — including a stamp that crossed the wire into a
receiver whose domain orders the pids differently.
"""

import pytest
from dict_clock import VectorClock
from dict_clock import bss_deliverable as oracle_bss
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catocs.messages import DataMessage
from repro.ordering import ClockDomain, compare
from repro.ordering.dense import bss_deliverable, group_domain
from repro.runtime import codec

PIDS = ["p", "q", "r", "s"]

counts_strategy = st.dictionaries(
    st.sampled_from(PIDS), st.integers(min_value=0, max_value=20)
)


def dense(counts):
    return ClockDomain(tuple(PIDS)).clock(counts)


# -- unit: domain bookkeeping ------------------------------------------------------


def test_domain_assigns_stable_indices():
    domain = ClockDomain(("a", "b"))
    assert domain.index("a") == 0 and domain.index("b") == 1
    assert domain.ensure("c") == 2
    assert domain.ensure("a") == 0  # re-ensure never moves a pid
    assert "c" in domain and "d" not in domain
    assert domain.index("d") is None


def test_group_domain_is_shared_per_sim_and_group():
    class Sim:
        pass

    sim = Sim()
    d1 = group_domain(sim, "g", ("a", "b"))
    d2 = group_domain(sim, "g", ("b", "c"))
    assert d1 is d2
    assert d1.pids == ["a", "b", "c"]
    assert group_domain(sim, "other", ("a",)) is not d1
    assert group_domain(sim, "g") is d1  # a lookup with no pids extends nothing


def test_group_domain_survives_slotted_sims():
    class Slotted:  # as the kernel's Simulator does: a slot for the registry
        __slots__ = ("_clock_domains",)

    sim = Slotted()
    domain = group_domain(sim, "g", ("a",))
    assert group_domain(sim, "g", ("b",)) is domain
    assert domain.pids == ["a", "b"]


def test_older_clock_valid_after_domain_grows():
    domain = ClockDomain(("a", "b"))
    old = domain.zero().stamped("a")
    domain.ensure("c")  # a joiner extends the domain
    new = domain.zero().stamped("c")
    assert old["c"] == 0 and new["a"] == 0
    assert not old <= new and not new <= old
    assert old.merge_in(new.as_dict()).as_dict() == {"a": 1, "c": 1}


# -- unit: stamps and counts -------------------------------------------------------


def test_stamped_does_not_alias_the_source():
    domain = ClockDomain(("a", "b"))
    delivered = domain.zero()
    stamp = delivered.stamped("a")
    assert stamp["a"] == 1 and delivered["a"] == 0
    delivered.advance("a", 5)
    assert stamp["a"] == 1


def test_as_dict_drops_zero_entries():
    domain = ClockDomain(("a", "b", "c"))
    assert domain.zero().stamped("b").as_dict() == {"b": 1}


def test_size_bytes_covers_whole_domain():
    domain = ClockDomain(("p", "quux"))
    assert domain.zero().size_bytes() == (8 + 1) + (8 + 4)


# -- unit: one domain per comparison -----------------------------------------------


def test_cross_domain_comparison_raises():
    a = ClockDomain(("p", "q")).clock({"p": 1})
    b = ClockDomain(("q", "p")).clock({"p": 1})  # same counts, another domain
    with pytest.raises(TypeError):
        a == b
    with pytest.raises(TypeError):
        a <= b
    with pytest.raises(TypeError):
        bss_deliverable(b, a, "p")


def test_comparison_with_non_clock_is_not_implemented():
    assert dense({"p": 1}).__eq__(42) is NotImplemented
    assert dense({"p": 1}) != 42


# -- unit: BSS deliverability ------------------------------------------------------


def test_bss_deliverable_dense_fast_path():
    domain = ClockDomain(("a", "b"))
    delivered = domain.clock({"a": 2, "b": 1})
    assert bss_deliverable(domain.clock({"a": 3}), delivered, "a")
    assert not bss_deliverable(domain.clock({"a": 4}), delivered, "a")  # gap
    assert not bss_deliverable(
        domain.clock({"a": 3, "b": 2}), delivered, "a")  # missing dep from b
    assert bss_deliverable(domain.clock({"a": 3, "b": 1}), delivered, "a")


@given(counts_strategy, counts_strategy, st.sampled_from(PIDS))
def test_bss_agrees_across_representations(vc_counts, seen_counts, sender):
    domain = ClockDomain(tuple(PIDS))
    dense_result = bss_deliverable(
        domain.clock(vc_counts), domain.clock(seen_counts), sender)
    dict_result = oracle_bss(VectorClock(vc_counts), VectorClock(seen_counts), sender)
    assert dense_result == dict_result


# -- property: dense and the oracle agree on compare / dominates / merge -----------


@given(counts_strategy, counts_strategy)
def test_representations_agree_on_compare(a_counts, b_counts):
    domain = ClockDomain(tuple(PIDS))
    da, db = domain.clock(a_counts), domain.clock(b_counts)
    va, vb = VectorClock(a_counts), VectorClock(b_counts)
    assert (da == db) == (va == vb)
    assert (da <= db) == (va <= vb)
    assert compare(da, db) is compare(va, vb)


@given(counts_strategy, counts_strategy)
def test_representations_agree_on_merge(a_counts, b_counts):
    merged_dense = dense(a_counts).merge_in(b_counts)
    merged_dict = VectorClock(a_counts).merged(VectorClock(b_counts))
    assert merged_dense.as_dict() == {
        pid: count for pid, count in merged_dict.as_dict().items() if count
    }


#: One simulated event: (actor index, kind) where kind 0=stamp, 1=merge-from,
#: 2=advance.  Both representations replay the identical history.
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(PIDS),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=40,
)


@settings(max_examples=60)
@given(events_strategy)
def test_representations_agree_over_random_histories(events):
    domain = ClockDomain(tuple(PIDS))
    dense_clocks = [domain.zero() for _ in range(3)]
    dict_clocks = [VectorClock.zero(PIDS) for _ in range(3)]
    for actor, kind, pid, value in events:
        if kind == 0:
            dense_clocks[actor] = dense_clocks[actor].stamped(pid)
            dict_clocks[actor] = dict_clocks[actor].stamped(pid)
        elif kind == 1:
            other = (actor + 1) % 3
            dense_clocks[actor].merge_in(dense_clocks[other].as_dict())
            dict_clocks[actor].merge_in(dict_clocks[other])
        else:
            dense_clocks[actor].advance(pid, value)
            dict_clocks[actor].advance(pid, value)
    for i in range(3):
        assert VectorClock(dense_clocks[i].as_dict()) == dict_clocks[i], (
            dense_clocks[i], dict_clocks[i])
        for j in range(3):
            assert (dense_clocks[i] <= dense_clocks[j]) == \
                (dict_clocks[i] <= dict_clocks[j])
            assert (dense_clocks[i] == dense_clocks[j]) == \
                (dict_clocks[i] == dict_clocks[j])


# -- property: a stamp decoded into a receiver's differently ordered domain ---------


@settings(max_examples=200, deadline=None)
@given(stamp=counts_strategy, seen=counts_strategy, sender=st.sampled_from(PIDS),
       receiver_order=st.permutations(PIDS + ["t"]))
def test_a_stamp_decoded_into_a_reordered_domain_agrees_with_the_oracle(
        stamp, seen, sender, receiver_order):
    """The sender's domain orders the pids (p, q, r, s); the receiver's holds
    them in any other order, with a member of its own besides.  The wire
    carries pids, not indices, so after decoding every comparison against
    the receiver's clocks is the oracle's."""
    sent = ClockDomain(tuple(PIDS)).clock(stamp)
    msg = DataMessage(group="g", sender=sender, seq=1, payload=None, sent_at=0.0, vc=sent)
    receiver = ClockDomain(tuple(receiver_order))
    blob = codec.encode_datagram(sender, msg)
    decoded = codec.decode_datagram(blob, lambda group: receiver, PIDS)[1].vc
    delivered = receiver.clock(seen)
    same = receiver.clock(stamp)
    va, vs = VectorClock(stamp), VectorClock(seen)
    assert bss_deliverable(decoded, delivered, sender) == oracle_bss(va, vs, sender)
    assert (decoded <= delivered) == (va <= vs)
    assert (delivered <= decoded) == (vs <= va)
    assert (decoded == delivered) == (va == vs)
    assert decoded == same and decoded.as_dict() == sent.as_dict()


def test_stamping_a_short_clock_for_a_joiner_grows_only_the_stamp():
    domain = ClockDomain(("a", "b"))
    before_join = domain.zero().stamped("a")
    domain.ensure("c")
    stamp = before_join.stamped("c")
    assert stamp.as_dict() == {"a": 1, "c": 1}
    assert before_join.as_dict() == {"a": 1}
    assert stamp.size_bytes() == 3 * 9


def test_stamping_for_a_pid_the_domain_has_never_seen_adds_it():
    domain = ClockDomain(("a",))
    stamp = domain.zero().stamped("z")
    assert domain.index("z") == 1
    assert stamp.as_dict() == {"z": 1}
    assert stamp["a"] == 0
