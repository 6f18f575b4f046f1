"""Unit tests for the experiment harness utilities."""

import math

import pytest

from repro.experiments import ExperimentResult, Table, fit_power_law
from repro.experiments.harness import mean


def test_table_rows_and_columns():
    table = Table("T", ["a", "b"])
    table.add_row(1, 2)
    table.add_row(3, 4)
    assert table.column("a") == [1, 3]
    assert table.column("b") == [2, 4]


def test_table_rejects_wrong_width():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_render_contains_everything():
    table = Table("Title", ["name", "value"])
    table.add_row("x", 1.5)
    table.add_row("y", 12345.678)
    out = table.render()
    assert "Title" in out and "name" in out and "x" in out
    assert "1.50" in out
    assert "1.23e+04" in out  # large floats in compact form


def test_an_empty_table_renders_its_header_at_column_width():
    out = Table("Empty", ["name", "v"]).render().splitlines()
    assert out == ["Empty", "name | v", "-----+--"]


@pytest.mark.parametrize(
    "value, shown",
    [(0.0, "0"), (0.005, "0.005"), (-2500.0, "-2.5e+03"), (3.14159, "3.14"), (7, "7")],
)
def test_table_formats_numbers_by_magnitude(value, shown):
    table = Table("T", ["v"])
    table.add_row(value)
    assert table.render().splitlines()[-1].strip() == shown


def test_experiment_result_pass_fail():
    ok = ExperimentResult("EXX", "t", [], checks={"a": True})
    bad = ExperimentResult("EXX", "t", [], checks={"a": True, "b": False})
    assert ok.passed and not bad.passed
    assert "[PASS] a" in ok.render()
    assert "[FAIL] b" in bad.render()


def test_fit_power_law_recovers_exponent():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x ** 2 for x in xs]
    k, c = fit_power_law(xs, ys)
    assert abs(k - 2.0) < 1e-9
    assert abs(c - 3.0) < 1e-9


def test_fit_power_law_linear():
    xs = [2.0, 3.0, 10.0]
    k, _ = fit_power_law(xs, [5 * x for x in xs])
    assert abs(k - 1.0) < 1e-9


def test_fit_power_law_degenerate_inputs():
    k, c = fit_power_law([1.0], [2.0])
    assert math.isnan(k)
    k, c = fit_power_law([0.0, -1.0], [1.0, 2.0])
    assert math.isnan(k)
    k, c = fit_power_law([2.0, 2.0], [1.0, 5.0])
    assert math.isnan(k)


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0
