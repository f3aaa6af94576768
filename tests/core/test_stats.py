"""Tests for the Sec. 4 statistical analyses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.core import stats
from repro.errors import MeasurementError


class TestRunLengths:
    def test_basic(self):
        lengths = stats.run_lengths(np.array([5.0, 5.0, 7.0, 5.0]))
        assert list(lengths) == [2, 1, 1]

    def test_empty(self):
        assert stats.run_lengths(np.array([])).size == 0

    def test_histogram(self):
        hist = stats.run_length_histogram(np.array([1.0, 1.0, 2.0, 2.0, 3.0]))
        assert hist == {1: 1, 2: 2}

    @given(
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=300)
    )
    def test_lengths_sum_to_series_length(self, values):
        lengths = stats.run_lengths(np.array(values))
        assert lengths.sum() == len(values)
        assert np.all(lengths >= 1)

    def test_fraction_single_changes(self):
        # Alternating series: every run has length 1.
        values = np.array([1.0, 2.0] * 50)
        assert stats.fraction_single_measurement_changes(values) == 1.0
        with pytest.raises(MeasurementError):
            stats.fraction_single_measurement_changes(np.array([]))


class TestHistogram:
    def test_unique_bins(self):
        values = np.array([1.0, 2.0, 2.0, 4.0])
        counts, edges = stats.histogram_unique_bins(values)
        assert counts.sum() == 4
        assert len(counts) == 3  # three unique values -> three bins

    def test_constant_series(self):
        counts, edges = stats.histogram_unique_bins(np.array([5.0, 5.0]))
        assert list(counts) == [2]

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            stats.histogram_unique_bins(np.array([np.nan]))


class TestChiSquare:
    def test_normal_data_not_rejected(self):
        rng = np.random.default_rng(0)
        # Discrete (quantized) normal like a measured RDT series.
        values = np.round(rng.normal(1000, 10, 5000))
        _, p = stats.chi_square_normal_fit(values)
        assert p > 0.05

    def test_bimodal_data_rejected(self):
        rng = np.random.default_rng(1)
        values = np.round(
            np.concatenate(
                [rng.normal(900, 5, 2500), rng.normal(1100, 5, 2500)]
            )
        )
        _, p = stats.chi_square_normal_fit(values)
        assert p < 0.01

    def test_constant_rejected(self):
        with pytest.raises(MeasurementError):
            stats.chi_square_normal_fit(np.full(100, 7.0))

    def test_too_small_sample(self):
        with pytest.raises(MeasurementError):
            stats.chi_square_normal_fit(np.array([1.0, 2.0, 3.0]))


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(2)
        acf = stats.autocorrelation(rng.normal(0, 1, 1000), max_lag=10)
        assert acf[0] == 1.0

    def test_white_noise_within_bounds(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 10_000)
        assert stats.acf_indistinguishable_from_noise(values, max_lag=50)

    def test_periodic_signal_detected(self):
        t = np.arange(2000)
        values = np.sin(2 * np.pi * t / 20)
        assert not stats.acf_indistinguishable_from_noise(values, max_lag=50)

    def test_ar1_detected(self):
        rng = np.random.default_rng(4)
        values = np.zeros(5000)
        for i in range(1, 5000):
            values[i] = 0.9 * values[i - 1] + rng.normal()
        assert not stats.acf_indistinguishable_from_noise(values, max_lag=50)

    def test_bounds_and_errors(self):
        assert stats.white_noise_acf_bound(10_000) == pytest.approx(0.0196, abs=1e-3)
        with pytest.raises(MeasurementError):
            stats.white_noise_acf_bound(1)
        with pytest.raises(MeasurementError):
            stats.autocorrelation(np.array([1.0]), max_lag=1)
        with pytest.raises(MeasurementError):
            stats.autocorrelation(np.full(100, 3.0), max_lag=5)

    @pytest.mark.parametrize(
        "confidence", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")]
    )
    def test_bound_rejects_confidence_outside_unit_interval(self, confidence):
        # 1.0 would give an infinite bound, 1.5 NaN, 0.0 a zero band.
        with pytest.raises(MeasurementError, match="confidence"):
            stats.white_noise_acf_bound(100, confidence)


def _fig06_like_series(rng, n=3000, nan_fraction=0.02):
    """A grid-quantized RDT series with failed-sweep NaNs, like the Fig. 6
    input: values snap to a hammer-sweep step grid."""
    values = np.round(rng.normal(4000.0, 40.0, n) / 16.0) * 16.0
    failed = rng.random(n) < nan_fraction
    values[failed] = np.nan
    return values


class TestFftAutocorrelation:
    """The FFT path must reproduce the direct estimator to float tolerance."""

    @pytest.mark.parametrize("max_lag", [1, 7, 50, 200])
    def test_matches_direct_formula_on_fig06_inputs(self, max_lag):
        rng = np.random.default_rng(6)
        values = _fig06_like_series(rng)
        data = values[~np.isnan(values)]
        centered = data - data.mean()
        variance = float(np.dot(centered, centered))
        direct = stats._autocorrelation_direct(centered, variance, max_lag)
        fft = stats.autocorrelation(values, max_lag=max_lag)
        np.testing.assert_allclose(fft, direct, rtol=1e-9, atol=1e-12)

    def test_matches_direct_on_correlated_series(self):
        rng = np.random.default_rng(8)
        values = np.zeros(4000)
        for i in range(1, len(values)):
            values[i] = 0.8 * values[i - 1] + rng.normal()
        centered = values - values.mean()
        variance = float(np.dot(centered, centered))
        direct = stats._autocorrelation_direct(centered, variance, 100)
        fft = stats.autocorrelation(values, max_lag=100)
        np.testing.assert_allclose(fft, direct, rtol=1e-9, atol=1e-12)

    def test_ljung_box_matches_per_lag_sum(self):
        rng = np.random.default_rng(9)
        values = _fig06_like_series(rng)
        lags = 20
        q, p = stats.ljung_box_test(values, lags=lags)
        data = values[~np.isnan(values)]
        n = data.size
        acf = stats.autocorrelation(data, max_lag=lags)
        expected_q = n * (n + 2.0) * sum(
            float(acf[lag]) ** 2 / (n - lag) for lag in range(1, lags + 1)
        )
        assert q == pytest.approx(expected_q, rel=1e-12)
        assert 0.0 <= p <= 1.0


class TestBoxStats:
    def test_quartiles(self):
        box = stats.box_stats(np.arange(1, 101, dtype=float))
        assert box.minimum == 1 and box.maximum == 100
        assert box.median == pytest.approx(50.5)
        assert box.iqr == pytest.approx(49.5)

    def test_cv(self):
        values = np.array([90.0, 100.0, 110.0])
        expected = values.std() / values.mean()
        assert stats.coefficient_of_variation(values) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            stats.box_stats(np.array([]))


class TestScipyKernelPins:
    """The ``scipy.special`` kernels (and the smooth-size search) this
    module calls must equal the ``scipy.stats``/``scipy.fft`` wrappers
    bit for bit: the golden figure digests depend on it."""

    def test_ndtr_equals_norm_cdf_with_loc_and_scale(self):
        from scipy.stats import norm

        rng = np.random.default_rng(12)
        for _ in range(200):
            mean = rng.normal(4000.0, 500.0)
            std = rng.uniform(1e-3, 300.0)
            edges = np.sort(rng.normal(mean, 4.0 * std, 64))
            edges[[0, -1]] = [mean - 40.0 * std, mean + 40.0 * std]
            expected = norm.cdf(edges, loc=mean, scale=std)
            actual = special.ndtr((edges - mean) / std)
            np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("dof", [1, 2, 3, 17, 20, 250])
    def test_chdtrc_equals_chi2_sf(self, dof):
        from scipy.stats import chi2

        xs = [0.0, 1e-300, 1e-8, 0.5, float(dof), 3.0 * dof, 1e4, np.inf]
        for x in xs:
            assert special.chdtrc(dof, x) == chi2.sf(x, dof)
        assert special.chdtrc(dof, 0.0) == chi2.sf(0.0, dof) == 1.0

    def test_ndtri_equals_norm_ppf_and_bound(self):
        from scipy.stats import norm

        for confidence in np.linspace(0.001, 0.999, 999):
            q = 0.5 + confidence / 2.0
            assert special.ndtri(q) == norm.ppf(q)
            assert stats.white_noise_acf_bound(3000, confidence) == float(
                norm.ppf(q) / np.sqrt(3000)
            )

    def test_ljung_box_p_value_equals_chi2_sf(self):
        from scipy.stats import chi2

        values = _fig06_like_series(np.random.default_rng(10))
        for lags in (1, 5, 20):
            q, p = stats.ljung_box_test(values, lags=lags)
            assert p == float(chi2.sf(q, lags))

    def test_next_fast_len_equals_scipy_fft(self):
        from scipy.fft import next_fast_len

        targets = list(range(1, 20_000)) + list(range(99_990, 100_201))
        mismatched = [
            m for m in targets
            if stats._next_fast_len(m) != next_fast_len(m, real=True)
        ]
        assert mismatched == []


@given(
    st.lists(st.sampled_from([1.0, 2.0, np.nan]), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_block_counts_equal_whole_series_counts(values, block):
    """Counted in blocks of any size, the single-change fraction and the
    distinct-value count are those of the whole series."""
    from unittest import mock

    from repro.core import series as series_module
    from repro.core.series import RdtSeries

    data = np.array(values)
    lengths = stats.run_lengths(data)
    expected = float((lengths == 1).sum() / lengths.size)
    with mock.patch.object(stats, "_BLOCK", block), \
            mock.patch.object(series_module, "_BLOCK", block):
        assert stats.fraction_single_measurement_changes(data) == expected
        measured = RdtSeries(data)
        if measured.valid.size:
            assert measured.n_unique == np.unique(measured.valid).size
