"""Tests for Algorithm 1: sweeps, meters, victim selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bender.host import DramBender
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.core.rdt import (
    FastRdtMeter,
    HammerSweep,
    RdtMeter,
    find_victim,
)
from repro.errors import ConfigurationError, MeasurementError
from tests.conftest import make_module


REF = TestConfig(CHECKERED0, t_agg_on_ns=35.0)


class TestHammerSweep:
    def test_from_guess_matches_algorithm1(self):
        sweep = HammerSweep.from_guess(2000.0)
        assert sweep.start == 1000.0
        assert sweep.stop == 6000.0
        assert sweep.step == 20.0
        assert sweep.n_points == 250

    def test_grid_monotone_and_rounded(self):
        grid = HammerSweep.from_guess(3333.0).grid()
        assert np.all(np.diff(grid) > 0)
        assert np.all(grid == np.round(grid))

    def test_quantize_semantics(self):
        sweep = HammerSweep(start=100.0, stop=200.0, step=10.0)
        measured = sweep.quantize(np.array([95.0, 100.0, 101.0, 195.0, 300.0]))
        assert measured[0] == 100.0  # below grid: first trial flips
        assert measured[1] == 100.0  # exactly at a grid point
        assert measured[2] == 110.0  # rounds up to the next trial
        assert np.isnan(measured[4])  # beyond the sweep: no flip recorded

    def test_invalid_sweeps(self):
        with pytest.raises(MeasurementError):
            HammerSweep(100.0, 50.0, 10.0)
        with pytest.raises(MeasurementError):
            HammerSweep(100.0, 200.0, 0.0)
        with pytest.raises(MeasurementError):
            HammerSweep.from_guess(0.0)
        for value in (np.nan, np.inf, -np.inf):
            for bounds in (
                (value, 200.0, 10.0), (100.0, value, 10.0), (100.0, 200.0, value)
            ):
                with pytest.raises(MeasurementError):
                    HammerSweep(*bounds)
            with pytest.raises(MeasurementError):
                HammerSweep.from_guess(value)

    @given(
        guess=st.floats(min_value=100.0, max_value=1e6),
        latent=st.floats(min_value=1.0, max_value=5e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantize_property(self, guess, latent):
        sweep = HammerSweep.from_guess(guess)
        measured = float(sweep.quantize(np.array([latent]))[0])
        grid = sweep.grid()
        if np.isnan(measured):
            assert latent > grid[-1]
        else:
            assert measured in grid
            assert measured >= min(latent, grid[0])
            # The measured value is the first grid point >= latent.
            earlier = grid[grid < measured]
            assert all(point < latent for point in earlier)


class TestFastRdtMeter:
    def test_series_reproducible(self, module):
        meter = FastRdtMeter(module)
        a = meter.measure_series(100, REF, 200)
        b = meter.measure_series(100, REF, 200)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_series_metadata(self, module):
        series = FastRdtMeter(module).measure_series(100, REF, 50)
        assert series.module_id == module.module_id
        assert series.row == 100
        assert series.grid_step > 0

    def test_guess_near_series_mean(self, module):
        meter = FastRdtMeter(module)
        guess = meter.guess_rdt(100, REF)
        series = meter.measure_series(100, REF, 500)
        assert guess == pytest.approx(series.mean, rel=0.1)

    def test_guess_repeats_rule_matches_batch(self, module):
        meter = FastRdtMeter(module)
        with pytest.raises(ConfigurationError) as batch:
            meter.guess_rdt_batch([100], REF, repeats=0)
        with pytest.raises(ConfigurationError) as single:
            meter.guess_rdt(100, REF, repeats=0)
        assert str(single.value) == str(batch.value)


class TestBenderMeter:
    def test_measure_series_agrees_with_fast_path(self, module):
        """The two meters sample the same process: their series must agree
        in location and scale."""
        fast = FastRdtMeter(module).measure_series(100, REF, 400)
        bender = DramBender(module)
        meter = RdtMeter(bender)
        slow = meter.measure_series(100, REF, 25)
        assert slow.mean == pytest.approx(fast.mean, rel=0.05)
        assert slow.min >= fast.min * 0.9
        assert slow.max <= fast.max * 1.1

    def test_measure_returns_trial_count(self, module):
        bender = DramBender(module)
        meter = RdtMeter(bender)
        guess = meter.guess_rdt(100, REF)
        sweep = __import__("repro.core.rdt", fromlist=["HammerSweep"]).HammerSweep.from_guess(guess)
        outcome = meter.measure(100, REF, sweep)
        assert outcome.trials >= 1
        assert not np.isnan(outcome.value)
        assert outcome.flipped_bits

    def test_unflippable_row_raises(self):
        module = make_module(mean_rdt=5e7)
        module.disable_interference_sources()
        meter = RdtMeter(DramBender(module))
        with pytest.raises(MeasurementError):
            meter.guess_rdt(100, REF)

    def test_argument_errors_match_fast_meter(self, module):
        """Bad ``n`` and ``repeats`` fail like :class:`FastRdtMeter`, before
        any trial runs."""
        fast = FastRdtMeter(module)
        bender = DramBender(module)
        meter = RdtMeter(bender)
        sweep = HammerSweep.from_guess(2000.0)
        with pytest.raises(ConfigurationError) as expected:
            fast.measure_series(100, REF, -1, sweep=sweep)
        with pytest.raises(ConfigurationError) as got:
            meter.measure_series(100, REF, -1, sweep=sweep)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ConfigurationError) as expected:
            fast.guess_rdt(100, REF, repeats=0)
        with pytest.raises(ConfigurationError) as got:
            meter.guess_rdt(100, REF, repeats=0)
        assert str(got.value) == str(expected.value)
        assert bender.elapsed_ns == 0.0


class TestFindVictim:
    def test_selects_first_vulnerable_row(self, module):
        meter = FastRdtMeter(module)
        guess, victim = find_victim(meter, rows=range(50), threshold=40_000)
        assert 0 <= victim < 50
        assert guess < 40_000

    def test_threshold_excludes_strong_rows(self, module):
        meter = FastRdtMeter(module)
        with pytest.raises(MeasurementError):
            find_victim(meter, rows=range(10), threshold=1.0)

    def test_batched_path_matches_per_row_scan(self, module):
        # The FastRdtMeter route goes through guess_rdt_batch; it must
        # return the same first qualifying row and the same guess as a
        # naive per-row guess_rdt scan.
        meter = FastRdtMeter(module)
        threshold = 40_000.0
        guess, victim = find_victim(
            meter, rows=range(50), config=REF, threshold=threshold
        )
        for row in range(50):
            expected = meter.guess_rdt(row, REF)
            if expected < threshold:
                assert victim == row
                assert guess == expected
                break

    def test_batching_spans_chunk_boundaries(self, module, monkeypatch):
        # Force tiny chunks so a victim beyond the first chunk exercises
        # the chunk loop; the answer must not change.
        import repro.core.rdt as rdt_module

        meter = FastRdtMeter(module)
        full = find_victim(meter, rows=range(50), threshold=40_000)
        monkeypatch.setattr(rdt_module, "FIND_VICTIM_CHUNK", 7)
        chunked = find_victim(meter, rows=range(50), threshold=40_000)
        assert chunked == full


def test_measure_series_memory_is_bounded_per_value():
    """A long series is generated and quantized block by block: peak
    traced memory stays near the 8-byte output value, not the ~116 bytes
    per value of one full-size occupancy matrix and product."""
    import tracemalloc

    from repro.chips import build_module

    module = build_module("M1")
    module.disable_interference_sources()
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    sweep = HammerSweep.from_guess(meter.guess_rdt(100, config))
    n = 2_000_000
    tracemalloc.start()
    try:
        series = meter.measure_series(100, config, n, sweep=sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) == n
    assert peak / n <= 16


def test_measure_series_batch_memory_is_bounded_by_its_output():
    """Each batch row is quantized in place: the peak stays near the
    output values, not the latent matrix plus a quantized copy (2x)."""
    import tracemalloc

    from repro.chips import build_module

    module = build_module("M1")
    module.disable_interference_sources()
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    rows = [100, 101, 102, 103]
    n = 200_000
    meter.measure_series_batch(rows, config, 10_000)  # attach tables
    tracemalloc.start()
    try:
        series = meter.measure_series_batch(rows, config, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s) for s in series] == [n] * len(rows)
    assert peak <= 1.5 * len(rows) * n * 8
