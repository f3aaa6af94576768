"""Tests for RdtSeries statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.series import RdtSeries
from repro.errors import MeasurementError


def make(values):
    return RdtSeries(np.asarray(values, dtype=float), module_id="T")


def test_basic_stats():
    series = make([100, 110, 90, 100])
    assert series.min == 90
    assert series.max == 110
    assert series.mean == 100
    assert series.max_to_min_ratio == pytest.approx(110 / 90)
    assert series.n_unique == 3
    assert series.min_count == 1


def test_nan_handling():
    series = make([100, np.nan, 90])
    assert len(series) == 3
    assert series.n_failed_sweeps == 1
    assert series.min == 90


def test_all_nan_raises():
    series = make([np.nan, np.nan])
    with pytest.raises(MeasurementError):
        _ = series.min


def test_first_min_index():
    series = make([5, 4, 6, 4, 7])
    assert series.first_min_index() == 1


def test_is_constant():
    assert make([7, 7, 7]).is_constant()
    assert not make([7, 8]).is_constant()


def test_windowed_views():
    values = np.concatenate([np.full(10, 5.0), np.full(10, 9.0)])
    windows = make(values).windowed(window=10)
    assert windows == [(5.0, 5.0, 5.0), (9.0, 9.0, 9.0)]
    with pytest.raises(MeasurementError):
        make(values).windowed(0)


def test_describe_mentions_key_stats():
    text = make([100, 110]).describe()
    assert "min=100" in text and "max=110" in text


def test_two_dimensional_rejected():
    with pytest.raises(MeasurementError):
        RdtSeries(np.zeros((2, 2)))


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_invariants_property(values):
    series = make(values)
    tolerance = 1e-9 * max(abs(series.min), abs(series.max), 1.0)
    assert series.min - tolerance <= series.mean <= series.max + tolerance
    assert series.cv >= 0
    assert series.max_to_min_ratio >= 1.0
    assert 1 <= series.n_unique <= len(values)
    assert 1 <= series.min_count <= len(values)
    assert 0 <= series.first_min_index() < len(values)


def test_valid_is_a_read_only_view_without_failed_sweeps():
    series = make([100, 110, 90])
    assert np.shares_memory(series.valid, series.values)
    with pytest.raises(ValueError):
        series.valid[0] = 1.0
    # With a failed sweep, ``valid`` is a copy of the flipped entries.
    assert make([100, np.nan]).valid.tolist() == [100.0]
