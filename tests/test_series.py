import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval import (
    TimeSeries,
    difference,
    estimation_validation_split,
    load_csv,
    write_csv,
)

finite_values = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), min_size=1, max_size=60
)


def test_values_are_read_only():
    s = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


@pytest.mark.parametrize("bad", [[], [1.0, float("nan")], [float("inf")]])
def test_rejects_empty_and_non_finite(bad):
    with pytest.raises(ValueError):
        TimeSeries(bad)


def test_non_finite_error_names_index():
    with pytest.raises(ValueError, match="index 2"):
        TimeSeries([1.0, 2.0, float("nan")])


def test_load_csv_plain_rows(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0\n2.0\n3.5\n")
    s = load_csv(path)
    assert list(s.values) == [1.0, 2.0, 3.5]
    assert s.name == "a"


def test_load_csv_header_single_row(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("y\n7\n")
    assert list(load_csv(path).values) == [7.0]
    assert list(load_csv(path, column="y").values) == [7.0]


def test_load_csv_bad_cell_names_row(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1.0\n2.0\nabc\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_empty_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y\n")
    with pytest.raises(ValueError, match="empty"):
        load_csv(path)


def test_load_csv_unknown_column_name(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("y\n1\n")
    with pytest.raises(ValueError, match="no column named"):
        load_csv(path, column="z")


def test_load_csv_second_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,y\n0,1.5\n1,2.5\n")
    assert list(load_csv(path, column=1).values) == [1.5, 2.5]


def test_load_csv_rejects_a_negative_column_index(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,y\n0,1.5\n1,2.5\n")
    with pytest.raises(ValueError, match="column index must be >= 0, got -1"):
        load_csv(path, column=-1)


@settings(max_examples=100)
@given(values=finite_values)
def test_csv_round_trip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    original = TimeSeries(values)
    write_csv(original, path)
    again = load_csv(path)
    assert np.array_equal(original.values, again.values)


@pytest.mark.parametrize(
    "values,d,expected",
    [
        ([1, 2, 4], 1, [1, 2]),
        ([5, 5, 5], 0, [5, 5, 5]),
        ([1, 2, 4, 7], 2, [1, 1]),  # two d=1 passes by hand: [1,2,3] -> [1,1]
    ],
)
def test_difference_examples(values, d, expected):
    assert list(difference(TimeSeries(values), d).values) == expected


def test_difference_too_large():
    with pytest.raises(ValueError):
        difference(TimeSeries([1.0, 2.0]), 2)
    with pytest.raises(ValueError):
        difference(TimeSeries([1.0]), 1)


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False), min_size=3, max_size=50))
def test_difference_composes(values):
    s = TimeSeries(values)
    twice = difference(difference(s, 1), 1)
    assert np.allclose(twice.values, difference(s, 2).values, atol=1e-9)


@pytest.mark.parametrize(
    "length,fraction,sizes",
    [(10, 0.7, (7, 3)), (200, 0.7, (140, 60)), (2, 0.5, (1, 1))],
)
def test_split_sizes(length, fraction, sizes):
    s = TimeSeries(np.arange(length, dtype=float))
    est, val = estimation_validation_split(s, fraction)
    assert (len(est), len(val)) == sizes


def test_split_degenerate():
    with pytest.raises(ValueError):
        estimation_validation_split(TimeSeries([1.0]), 0.7)
    with pytest.raises(ValueError):
        estimation_validation_split(TimeSeries([1.0, 2.0]), 0.1)


@settings(max_examples=100)
@given(
    st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False), min_size=2, max_size=60),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_split_concatenates_back(values, fraction):
    s = TimeSeries(values)
    if not (1 <= math.floor(fraction * len(s)) <= len(s) - 1):
        with pytest.raises(ValueError):
            estimation_validation_split(s, fraction)
        return
    est, val = estimation_validation_split(s, fraction)
    assert np.array_equal(np.concatenate([est.values, val.values]), s.values)
