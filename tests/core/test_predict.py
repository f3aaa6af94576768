"""Tests for predictability and record-minima analyses."""

import numpy as np
import pytest

from repro.core.predict import (
    prediction_gains,
    record_minima,
    stopping_time_quantiles,
)
from repro.errors import MeasurementError


class TestPredictionGains:
    def test_white_noise_no_predictor_wins(self):
        rng = np.random.default_rng(0)
        gains = prediction_gains(rng.normal(1000, 10, 5000))
        for name, gain in gains.items():
            assert gain > 0.9, name
        # Last-value prediction of white noise doubles the MSE.
        assert gains["last_value"] == pytest.approx(2.0, rel=0.1)

    def test_ar1_signal_is_predictable(self):
        rng = np.random.default_rng(1)
        values = np.zeros(5000)
        for i in range(1, 5000):
            values[i] = 0.9 * values[i - 1] + rng.normal()
        gains = prediction_gains(values, warmup=500)
        assert gains["ar1"] < 0.5
        assert gains["last_value"] < 0.5

    def test_measured_vrd_series_unpredictable(self, module, reference_config):
        from repro.core.rdt import FastRdtMeter

        series = FastRdtMeter(module).measure_series(
            210, reference_config, 4000
        )
        gains = prediction_gains(series.valid)
        for name, gain in gains.items():
            assert gain > 0.85, name

    def test_validation(self):
        with pytest.raises(MeasurementError):
            prediction_gains(np.arange(5.0))
        with pytest.raises(MeasurementError):
            prediction_gains(np.full(100, 3.0))


class TestRecordMinima:
    def test_monotone_series(self):
        analysis = record_minima(np.arange(100.0, 0.0, -1.0))
        assert analysis.n_records == 100

    def test_increasing_series_single_record(self):
        analysis = record_minima(np.arange(1.0, 101.0))
        assert analysis.record_indices == [0]

    def test_iid_record_count_near_harmonic(self):
        rng = np.random.default_rng(2)
        counts = [
            record_minima(rng.normal(0, 1, 2000)).n_records
            for _ in range(60)
        ]
        expected = record_minima(rng.normal(0, 1, 2000)).expected_records_iid
        assert np.mean(counts) == pytest.approx(expected, rel=0.15)

    def test_quantized_series_fewer_records(self):
        """Grid quantization merges values, so measured VRD series set
        fewer records than continuous i.i.d. — but still more than one."""
        rng = np.random.default_rng(3)
        values = np.round(rng.normal(1000, 10, 2000))
        analysis = record_minima(values)
        assert 1 < analysis.n_records < analysis.expected_records_iid

    def test_records_up_to(self):
        values = np.array([5.0, 4.0, 6.0, 3.0] + [7.0] * 8)
        analysis = record_minima(values)
        # New running minima at measurements 0, 1 and 3, none after.
        assert analysis.record_indices == [0, 1, 3]

    def test_stopping_time_quantiles(self):
        rng = np.random.default_rng(4)
        analyses = [
            record_minima(rng.normal(0, 1, 1000)) for _ in range(50)
        ]
        quantiles = stopping_time_quantiles(analyses)
        assert quantiles[0.5] <= quantiles[0.9] <= quantiles[0.99]
        with pytest.raises(MeasurementError):
            stopping_time_quantiles([])
