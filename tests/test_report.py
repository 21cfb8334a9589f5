import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_reference, format_cell_reference

from shrinkdist.report import ExperimentReport, format_cell

MAX = np.finfo(float).max
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  MAX, -MAX, 0.1, 1e16, 123456789.0)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 12


cells = st.one_of(
    st.booleans(),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from(SPECIAL_FLOATS).map(np.float64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from(Level),
    st.text(alphabet="ab%,.- 0x", max_size=6),
)
tables = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[cells] * width), max_size=12).map(lambda rows: (width, rows)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=tables, meta=st.sampled_from([{}, {"note": "50% done, 1,2", "n": 3}]))
def test_to_csv_equals_per_cell_join(table, meta):
    width, rows = table
    report = ExperimentReport(columns=tuple(f"c{i}" for i in range(width)), rows=list(rows), meta=meta)
    assert report.to_csv() == csv_reference(report)


def test_to_csv_accepts_rows_given_as_lists():
    report = ExperimentReport(columns=("a", "b"), rows=[[1, 0.5], [True, "x%s"]])
    assert report.to_csv() == "a,b\n1,0.5\n1,x%s\n"


@pytest.mark.parametrize("v", [*SPECIAL_FLOATS, *map(np.float64, SPECIAL_FLOATS), np.float32(0.1), np.int64(-7),
                               np.bool_(False), True, False, 0, -12, 10**40, Level.HIGH, "a%d,b", (1, 2)])
def test_format_cell_equals_reference_on_special_values(v):
    assert format_cell(v) == format_cell_reference(v)


def test_format_cell_equals_reference_on_random_bit_patterns():
    bits = np.random.default_rng(20090301).integers(0, 2**64, size=50_000, dtype=np.uint64)
    for v in bits.view(np.float64).tolist():
        assert format_cell(v) == format_cell_reference(v)


def test_constructor_rows_are_width_checked_like_append():
    with pytest.raises(ValueError, match=r"^row width 1 != 2 columns$"):
        ExperimentReport(columns=("a", "b"), rows=[(1,), (1, 2, 3)])
    with pytest.raises(ValueError, match=r"^row width 3 != 2 columns$"):
        ExperimentReport(columns=("a", "b"), rows=[(1, 2), (1, 2, 3), (1,)])
    with pytest.raises(ValueError, match=r"^row width 3 != 2 columns$"):
        ExperimentReport(columns=("a", "b")).append(1, 2, 3)
    assert ExperimentReport(columns=("a", "b"), rows=[(1, 2)]).to_csv() == "a,b\n1,2\n"
