"""Tests for the Sec. 5.1 minimum-RDT analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.montecarlo import (
    expected_normalized_min,
    min_rdt_analysis,
    probability_of_min,
    scatter_points,
)
from repro.core.series import RdtSeries
from repro.errors import MeasurementError
from tests.differential.harness import (
    expected_normalized_min_monte_carlo,
    probability_of_min_monte_carlo,
)


def test_probability_exact_single_min():
    # Min appears once in 1000: one draw finds it with probability 1/1000.
    values = np.concatenate(([1.0], np.full(999, 2.0)))
    assert probability_of_min(values, 1) == pytest.approx(0.001)
    # 500 draws: 1 - C(999,500)/C(1000,500) = 0.5.
    assert probability_of_min(values, 500) == pytest.approx(0.5)


def test_probability_full_sample_certain():
    values = np.array([3.0, 1.0, 2.0])
    assert probability_of_min(values, 3) == 1.0


def test_probability_with_margin():
    values = np.array([100.0, 105.0, 109.0, 200.0])
    # Within 10% of the min: three qualifying values of four.
    assert probability_of_min(values, 1, within=0.10) == pytest.approx(0.75)


def test_expected_normalized_min_known_case():
    values = np.array([1.0, 2.0])
    # One draw: E[min] = 1.5, normalized = 1.5.
    assert expected_normalized_min(values, 1) == pytest.approx(1.5)
    # Two draws always include the min.
    assert expected_normalized_min(values, 2) == pytest.approx(1.0)


def test_monte_carlo_validates_closed_forms():
    rng = np.random.default_rng(0)
    values = np.round(rng.normal(1000, 15, 1000))
    for n in (1, 5, 50):
        exact = probability_of_min(values, n)
        estimate = probability_of_min_monte_carlo(
            values, n, iterations=20_000, rng=np.random.default_rng(1)
        )
        assert estimate == pytest.approx(exact, abs=0.02)
        exact_e = expected_normalized_min(values, n)
        estimate_e = expected_normalized_min_monte_carlo(
            values, n, iterations=20_000, rng=np.random.default_rng(2)
        )
        assert estimate_e == pytest.approx(exact_e, rel=0.01)


@given(
    values=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=300
    ),
    n=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=100, deadline=None)
def test_properties(values, n):
    data = np.array(values)
    n = min(n, data.size)
    p = probability_of_min(data, n)
    assert 0.0 < p <= 1.0
    e = expected_normalized_min(data, n)
    assert e >= 1.0 - 1e-9
    # More measurements never hurt.
    if n < data.size:
        assert probability_of_min(data, n + 1) >= p - 1e-12
        assert expected_normalized_min(data, n + 1) <= e + 1e-9


def test_monotone_in_margin():
    rng = np.random.default_rng(5)
    values = np.round(rng.normal(1000, 20, 500))
    p0 = probability_of_min(values, 5, within=0.0)
    p10 = probability_of_min(values, 5, within=0.10)
    assert p10 >= p0


def test_min_rdt_analysis_and_scatter():
    rng = np.random.default_rng(6)
    series = RdtSeries(np.round(rng.normal(1000, 15, 1000)))
    estimates = min_rdt_analysis(series)
    assert set(estimates) == {1, 3, 5, 10, 50, 500}
    xs, ys = scatter_points([estimates], n=1)
    assert xs.shape == ys.shape == (1,)


def test_invalid_inputs():
    with pytest.raises(MeasurementError):
        probability_of_min(np.array([]), 1)
    with pytest.raises(MeasurementError):
        probability_of_min(np.array([1.0]), 2)
    with pytest.raises(MeasurementError):
        probability_of_min(np.array([1.0, 2.0]), 1, within=-0.1)
    with pytest.raises(MeasurementError):
        expected_normalized_min(np.array([0.0, 1.0]), 1)


def test_min_rdt_analysis_memory_is_bounded_per_value():
    """The Fig. 8 analysis filters and sorts a series once and reuses one
    log-factorial table and two buffers for every N: about four
    series-sized float64 arrays (32 MB at a million values)."""
    import tracemalloc

    rng = np.random.default_rng(7)
    series = RdtSeries(np.round(rng.normal(1000, 15, 1_000_000)))
    tracemalloc.start()
    try:
        estimates = min_rdt_analysis(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(estimates) == {1, 3, 5, 10, 50, 500}
    assert peak <= 35 * 10**6


def test_min_rdt_analysis_matches_per_n_closed_forms():
    rng = np.random.default_rng(8)
    values = np.round(rng.normal(1000, 15, 2000))
    values[rng.random(values.size) < 0.05] = np.nan
    estimates = min_rdt_analysis(RdtSeries(values), (1, 7, 1900, 5000))
    assert set(estimates) == {1, 7, 1900}
    for n, estimate in estimates.items():
        assert estimate.probability_of_min == probability_of_min(values, n)
        assert estimate.expected_normalized_min == (
            expected_normalized_min(values, n)
        )
