"""Unit tests for matrix clocks (stability tracking)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import MatrixClock


def test_min_vector_over_rows():
    m = MatrixClock(["a", "b"])
    m.update_row("a", {"a": 5, "b": 2})
    m.update_row("b", {"a": 3, "b": 4})
    assert m.min_vector() == {"a": 3, "b": 2}


def test_stable_requires_everyone():
    m = MatrixClock(["a", "b", "c"])
    m.set_component("a", "a", 2)
    m.set_component("b", "a", 2)
    assert not m.stable("a", 2)
    m.set_component("c", "a", 2)
    assert m.stable("a", 2)
    assert m.stable("a", 1)
    assert not m.stable("a", 3)


def test_set_component_never_regresses():
    m = MatrixClock(["a", "b"])
    m.set_component("a", "b", 5)
    m.set_component("a", "b", 3)
    assert m.row("a")["b"] == 5


def test_update_row_merges():
    m = MatrixClock(["a", "b"])
    m.update_row("a", {"a": 2})
    m.update_row("a", {"b": 3})
    assert m.row("a") == {"a": 2, "b": 3}


def test_size_is_quadratic_in_members():
    small = MatrixClock([f"p{i}" for i in range(4)])
    big = MatrixClock([f"p{i}" for i in range(8)])
    assert big.size_bytes() >= 3.5 * small.size_bytes()


def test_empty_matrix_min_vector():
    assert MatrixClock([]).min_vector() == {}


# -- the maintained frontier vs a brute-force model ---------------------------------

MEMBERS = ["a", "b", "c"]
SUBJECTS = MEMBERS + ["x", "y"]      # x, y: senders outside the membership
OBSERVERS = MEMBERS + ["z"]          # z: an observer the matrix does not know

_mapping = st.dictionaries(st.sampled_from(SUBJECTS), st.integers(0, 6), max_size=5)
_update_op = st.tuples(
    st.just("update"), st.sampled_from(OBSERVERS),
    _mapping,
)
_set_op = st.tuples(
    st.just("set"), st.sampled_from(OBSERVERS), st.sampled_from(SUBJECTS),
    st.integers(0, 6),               # small: many calls raise nothing
)


class ModelMatrix:
    """The N x N scan the matrix used to run on every call: a list of dicts."""

    def __init__(self, pids):
        self.pids = list(pids)
        self.rows = [{} for _ in self.pids]

    def raise_to(self, observer, subject, count):
        if observer in self.pids:
            row = self.rows[self.pids.index(observer)]
            row[subject] = max(row.get(subject, 0), count)

    def frontier(self):
        return {s: min(row.get(s, 0) for row in self.rows) for s in self.pids}

    def stable(self, subject, seq):
        return all(row.get(subject, 0) >= seq for row in self.rows)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).map(lambda n: MEMBERS[:n]),
    st.lists(st.one_of(_update_op, _set_op), min_size=1, max_size=40),
)
def test_matrix_matches_the_brute_force_model(pids, ops):
    matrix, model = MatrixClock(pids), ModelMatrix(pids)
    moves = 0
    for op in ops:
        before = model.frontier()
        if op[0] == "update":
            _, observer, counts = op
            matrix.update_row(observer, counts)
            for subject, count in counts.items():
                model.raise_to(observer, subject, count)
        else:
            _, observer, subject, count = op
            matrix.set_component(observer, subject, count)
            model.raise_to(observer, subject, count)
        frontier = model.frontier()
        assert matrix.min_vector() == frontier, op
        # ``moves`` ticks once per column advance and never otherwise
        moves += sum(frontier[s] > before[s] for s in pids)
        assert matrix.moves == moves, op
        for subject in SUBJECTS:
            for seq in range(0, 8):
                if subject in pids:
                    assert matrix.stable(subject, seq) == model.stable(subject, seq), op
                else:  # the frontier has no column for an outsider
                    assert matrix.stable(subject, seq) == (seq <= 0), op
            for row, pid in zip(model.rows, pids):
                assert matrix.row(pid).get(subject, 0) == row.get(subject, 0), op


def test_rows_remember_outsiders_but_the_frontier_does_not():
    m = MatrixClock(["a", "b"])
    m.update_row("a", {"a": 1, "gone": 7})
    m.update_row("b", {"a": 1, "gone": 7})
    assert m.row("a")["gone"] == m.row("b")["gone"] == 7
    assert m.min_vector() == {"a": 1, "b": 0}
    assert not m.stable("gone", 7)


def test_row_is_a_snapshot():
    m = MatrixClock(["a", "b"])
    m.row("a")["b"] = 9  # must not bypass the maintained frontier
    m.min_vector()["b"] = 9
    assert m.row("a")["b"] == 0 and m.min_vector()["b"] == 0
