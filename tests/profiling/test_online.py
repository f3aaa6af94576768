"""Tests for the online RDT profiler."""

import math

import pytest

from repro.core.rdt import FastRdtMeter
from repro.errors import ConfigurationError, MeasurementError
from repro.profiling import (
    GuardbandedMinPolicy,
    OnlineRdtProfiler,
    StaticThresholdPolicy,
)
from tests.conftest import make_module


ROWS = list(range(40, 50))


def make_profiler(module, config, **kwargs):
    return OnlineRdtProfiler(module, ROWS, config, **kwargs)


class TestProfiler:
    def test_idle_tick_measures_and_charges_time(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        performed = profiler.idle_tick(budget_ns=2e6)
        assert performed >= 1
        assert profiler.measurements_done == performed
        assert profiler.time_spent_ns > 0

    def test_bigger_budget_more_measurements(self, module, reference_config):
        small = make_profiler(module, reference_config)
        large = make_profiler(module, reference_config)
        n_small = small.idle_tick(budget_ns=1e6)
        n_large = large.idle_tick(budget_ns=2e7)
        assert n_large > n_small

    def test_min_estimate_tightens_monotonically(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        estimates = []
        for _ in range(15):
            profiler.idle_tick(budget_ns=2e6)
            estimates.append(profiler.global_min_estimate())
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))

    def test_round_robin_covers_all_rows(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        for _ in range(len(ROWS)):
            profiler.idle_tick(budget_ns=1.0)  # exactly one measurement each
        counts = [p.n_measurements for p in profiler._profiles.values()]
        assert all(count == 1 for count in counts)

    def test_focus_min_strategy_revisits_holder(self, module, reference_config):
        profiler = make_profiler(module, reference_config, strategy="focus_min")
        for _ in range(40):
            profiler.idle_tick(budget_ns=1.0)
        profiles = profiler._profiles
        holder = profiler.min_holder()
        counts = {row: p.n_measurements for row, p in profiles.items()}
        assert counts[holder] >= max(
            count for row, count in counts.items() if row != holder
        ) - 1

    def test_convergence_excess_against_long_series(
        self, module, reference_config
    ):
        meter = FastRdtMeter(module)
        true_minima = {
            row: meter.measure_series(row, reference_config, 2000).min
            for row in ROWS
        }
        profiler = make_profiler(module, reference_config)
        # One measurement per row first, so the averaged row set is fixed.
        for _ in range(len(ROWS)):
            profiler.idle_tick(budget_ns=1.0)
        early = profiler.convergence_excess(true_minima)
        for _ in range(60):
            profiler.idle_tick(budget_ns=5e6)
        late = profiler.convergence_excess(true_minima)
        assert late <= early
        assert late >= -0.25  # estimates may dip below a 2000-long min

    def test_history_tracking(self, module, reference_config):
        profiler = make_profiler(module, reference_config, keep_history=True)
        profiler.idle_tick(budget_ns=5e6)
        assert any(p.history for p in profiler._profiles.values())

    def test_history_is_bounded_ring(self, module, reference_config):
        profiler = make_profiler(
            module, reference_config, keep_history=True, history_limit=3
        )
        for _ in range(8 * len(ROWS)):
            profiler.idle_tick(budget_ns=1.0)  # one measurement per tick
        for profile in profiler._profiles.values():
            successes = profile.n_measurements - profile.failed_sweeps
            assert len(profile.history) == min(3, successes)
            # The ring keeps the most recent value, not the oldest.
            if successes and not math.isnan(profile.last_rdt):
                assert profile.history[-1] == profile.last_rdt

    def test_history_unbounded_when_disabled(self, module, reference_config):
        profiler = make_profiler(
            module, reference_config, keep_history=True, history_limit=None
        )
        for _ in range(6 * len(ROWS)):
            profiler.idle_tick(budget_ns=1.0)
        totals = [
            p.n_measurements - p.failed_sweeps
            for p in profiler._profiles.values()
        ]
        lengths = [len(p.history) for p in profiler._profiles.values()]
        assert lengths == totals

    def test_history_limit_validation(self, module, reference_config):
        with pytest.raises(ConfigurationError):
            make_profiler(module, reference_config, history_limit=0)

    def test_validation(self, module, reference_config):
        with pytest.raises(ConfigurationError):
            OnlineRdtProfiler(module, [], reference_config)
        with pytest.raises(ConfigurationError):
            make_profiler(module, reference_config, strategy="wat")
        profiler = make_profiler(module, reference_config)
        with pytest.raises(ConfigurationError):
            profiler.idle_tick(budget_ns=0.0)
        with pytest.raises(MeasurementError):
            profiler.global_min_estimate()  # nothing measured yet


class TestPolicies:
    def test_static(self):
        policy = StaticThresholdPolicy(500.0)
        assert policy.threshold() == 500.0
        with pytest.raises(ConfigurationError):
            StaticThresholdPolicy(0.0)

    def test_guardbanded_min_bootstrap_then_tracks(
        self, module, reference_config
    ):
        profiler = make_profiler(module, reference_config)
        policy = GuardbandedMinPolicy(profiler, margin=0.2, bootstrap=64.0)
        assert policy.threshold() == 64.0  # no estimate yet
        profiler.idle_tick(budget_ns=5e6)
        threshold = policy.threshold()
        assert math.isfinite(threshold)
        assert threshold == pytest.approx(
            profiler.global_min_estimate() * 0.8
        )

    def test_guardband_validation(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        with pytest.raises(ConfigurationError):
            GuardbandedMinPolicy(profiler, margin=1.0)
        with pytest.raises(ConfigurationError):
            GuardbandedMinPolicy(profiler, bootstrap=0.0)


class TestHistoryAllocation:
    def test_no_history_storage_when_disabled(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        profiler.idle_tick(1e9)
        assert all(p.history is None for p in profiler._profiles.values())


class TestDeterminism:
    def test_same_seed_runs_are_identical(self, module, reference_config):
        first = make_profiler(module, reference_config, keep_history=True)
        # Fresh module with the same seed for the twin profiler.
        twin_module = make_module()
        twin = make_profiler(twin_module, reference_config, keep_history=True)
        for _ in range(10):
            first.idle_tick(1.0)
            twin.idle_tick(1.0)
        for row in ROWS:
            assert list(first._profiles[row].history) == list(
                twin._profiles[row].history
            )


class TestCostTable:
    def test_cost_lookup_matches_summation(self, module, reference_config):
        profiler = make_profiler(module, reference_config)
        from repro.core.rdt import HammerSweep

        sweep = HammerSweep.from_guess(1800.0)
        grid = sweep.grid()
        probes = [float("nan"), grid[0] - 1.0, float(grid[0]),
                  float(grid[17]), float(grid[-1]), grid[-1] + 10.0]
        for value in probes:
            trials = grid if math.isnan(value) else grid[grid <= value]
            expected = float(
                sum(profiler._trial_time_ns(h) for h in trials)
            )
            assert profiler._measurement_cost_ns(sweep, value) == expected
