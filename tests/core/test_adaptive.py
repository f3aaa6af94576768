"""Tests for the adaptive measurement scheduler (repro.core.adaptive)."""

import numpy as np
import pytest

from repro.core import CHECKERED0, ROWSTRIPE0, TestConfig
from repro.core.adaptive import (
    STOP_BUDGET,
    STOP_CONVERGED,
    STOP_EXHAUSTED,
    STOP_NEVER_FLIPPED,
    AdaptiveConfig,
    AdaptiveDriver,
    AdaptiveResult,
    AdaptiveScheduler,
    adaptive_search_trials,
    adaptive_series_trials,
    exhaustive_sweep_trials,
    measure_requests,
    running_statistics,
    sweep_flip_indices,
)
from repro.core.rdt import FastRdtMeter, HammerSweep
from repro.errors import ConfigurationError, MeasurementError


def _config(module, pattern=CHECKERED0):
    return TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        config = AdaptiveConfig()
        assert config.z > 2.5  # 99% two-sided

    @pytest.mark.parametrize("kwargs", [
        dict(confidence=0.0),
        dict(confidence=1.0),
        dict(rel_precision=-0.1),
        dict(rel_precision=0.0, abs_precision=0.0),
        dict(min_measurements=1),
        dict(min_measurements=50, max_measurements=10),
        dict(budget=0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(**kwargs)

    def test_dict_round_trip(self):
        config = AdaptiveConfig(confidence=0.9, budget=500)
        assert AdaptiveConfig.from_dict(config.to_dict()) == config


class TestSearchCostModel:
    """adaptive_search_trials simulates probing; verify it against an
    explicit probe simulation and its structural properties."""

    def _probe_count_reference(self, target, grid_size, warm):
        """Independent re-derivation: count probes of a correct
        bracket-then-bisect search against a monotone flip predicate
        (index >= target flips)."""
        probes = 0
        pivot = grid_size // 2 if warm is None else min(max(warm, 0),
                                                        grid_size - 1)
        probes += 1
        lo, hi = 0, grid_size
        if pivot >= target:
            hi, step = pivot, 1
            while hi > lo:
                lower = max(lo, hi - step)
                probes += 1
                if lower >= target:
                    hi = lower
                else:
                    lo = lower + 1
                    break
                step *= 2
        else:
            lo, step = pivot + 1, 1
            while lo < grid_size:
                upper = min(grid_size - 1, lo + step - 1)
                probes += 1
                if upper >= target:
                    hi = upper
                    break
                lo = upper + 1
                step *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            if mid >= target:
                hi = mid
            else:
                lo = mid + 1
        return probes

    @pytest.mark.parametrize("grid_size", [1, 2, 250, 251])
    def test_bounded_by_grid(self, grid_size):
        for target in range(grid_size + 1):
            for warm in [None, 0, grid_size // 2, grid_size - 1]:
                trials = adaptive_search_trials(target, grid_size, warm)
                assert 1 <= trials <= grid_size + 2
                assert trials == self._probe_count_reference(
                    target, grid_size, warm
                )

    def test_logarithmic_from_cold_start(self):
        # Any target on the standard 250-point grid costs O(log n) probes,
        # far below the linear sweep's worst case.
        worst = max(
            adaptive_search_trials(t, 250, None) for t in range(251)
        )
        assert worst <= 20

    def test_warm_start_beats_cold_nearby(self):
        cold = adaptive_search_trials(200, 250, None)
        warm = adaptive_search_trials(200, 250, 199)
        assert warm < cold

    def test_empty_grid_free(self):
        assert adaptive_search_trials(0, 0) == 0


class TestTrialAccounting:
    def test_flip_indices_and_exhaustive_cost(self):
        sweep = HammerSweep.from_guess(10_000.0)
        grid = sweep.grid()
        values = np.array([grid[0], grid[10], float("nan")])
        indices = sweep_flip_indices(values, sweep)
        assert list(indices) == [0, 10, grid.size]
        # Linear sweep: index+1 probes per flip, full grid for NaN.
        assert exhaustive_sweep_trials(values, sweep) == 1 + 11 + grid.size

    def test_series_trials_thread_warm_start(self):
        sweep = HammerSweep.from_guess(10_000.0)
        grid = sweep.grid()
        stable = np.full(20, grid[100])
        total, warm = adaptive_series_trials(stable, sweep, None)
        assert warm == 100
        # After the first locate, every repeat costs ~2 probes (warm pivot
        # flips, neighbor below does not).
        first = adaptive_search_trials(100, grid.size, None)
        assert total == first + 19 * 2


class TestRunningStatistics:
    def test_empty_and_single(self):
        z = AdaptiveConfig().z
        mean, std, cv, half = running_statistics(np.array([]), z)
        assert all(x != x for x in (mean, std, cv, half))
        mean, std, cv, half = running_statistics(np.array([5.0]), z)
        assert mean == 5.0 and half == float("inf")

    def test_iid_interval_shrinks(self):
        rng = np.random.default_rng(0)
        z = 2.0
        small = running_statistics(rng.normal(100, 5, 10), z)[3]
        large = running_statistics(rng.normal(100, 5, 1000), z)[3]
        assert large < small

    def test_autocorrelated_series_widens_interval(self):
        # A slow two-state process: same marginal std, fewer effective
        # samples, so the corrected interval must be wider than iid.
        sticky = np.array([100.0] * 30 + [120.0] * 30)
        iid = np.tile([100.0, 120.0], 30)
        z = 2.0
        assert running_statistics(sticky, z)[3] > (
            running_statistics(iid, z)[3]
        )

    def test_nan_measurements_ignored(self):
        z = 2.0
        values = np.array([10.0, float("nan"), 12.0, float("nan"), 11.0])
        mean = running_statistics(values, z)[0]
        assert mean == pytest.approx(11.0)


class TestScheduler:
    def test_converges_and_saves_trials(self, module):
        config = _config(module)
        result = AdaptiveScheduler(
            module, [config], AdaptiveConfig(max_measurements=200)
        ).run([3, 17, 40])
        assert len(result) == 3
        assert result.stopping_reasons() == {STOP_CONVERGED: 3}
        assert result.trial_reduction_estimate > 10
        for estimate in result.estimates:
            assert estimate.n_measured < 200
            assert estimate.trials < estimate.exhaustive_trials
            assert estimate.ci_half_width > 0

    def test_estimates_match_oracle_mean(self, module):
        config = _config(module)
        n_max = 200
        result = AdaptiveScheduler(
            module, [config], AdaptiveConfig(max_measurements=n_max)
        ).run([3, 17])
        meter = FastRdtMeter(module, 0)
        module.set_temperature(config.temperature_c)
        for estimate in result.estimates:
            series = meter.measure_series(estimate.row, config, n_max)
            oracle = float(np.nanmean(series.values))
            oracle_std = float(np.nanstd(series.values))
            # Statistical containment: the adaptive CI plus the oracle
            # mean's own sampling noise must cover the oracle mean.
            bound = estimate.ci_half_width + 3 * oracle_std / np.sqrt(n_max)
            assert abs(estimate.estimate - oracle) <= bound

    def test_exhausted_when_precision_unreachable(self, module):
        config = _config(module)
        result = AdaptiveScheduler(
            module,
            [config],
            AdaptiveConfig(
                rel_precision=1e-9, max_measurements=16, min_measurements=4
            ),
        ).run([3])
        assert result.estimates[0].stopping_reason == STOP_EXHAUSTED
        assert result.estimates[0].n_measured == 16

    def test_never_flipped_row(self, module):
        # An absurdly low temperature drives latent RDT far above the
        # sweep grid built from the guess stream? Not available — instead
        # simulate through the driver directly below. Here just assert a
        # normal run has none.
        config = _config(module)
        result = AdaptiveScheduler(
            module, [config], AdaptiveConfig(max_measurements=50)
        ).run([3])
        assert STOP_NEVER_FLIPPED not in result.stopping_reasons()

    def test_budget_partial_funding(self, module):
        config = _config(module)
        result = AdaptiveScheduler(
            module,
            [config],
            AdaptiveConfig(max_measurements=200, budget=120),
        ).run([3, 17, 40, 100, 200])
        assert result.trials_spent > 0
        reasons = result.stopping_reasons()
        assert reasons.get(STOP_BUDGET, 0) >= 1
        # The spend respects the budget up to one in-flight round.
        assert result.trials_spent <= 120 + 200

    def test_multi_config_and_multi_bank(self, module):
        configs = [_config(module), _config(module, ROWSTRIPE0)]
        result = AdaptiveScheduler(
            module, configs, AdaptiveConfig(max_measurements=100)
        ).run_pairs([(0, 3), (1, 17)])
        assert len(result) == 4
        labels = {(e.bank, e.row, e.config.label()) for e in result.estimates}
        assert len(labels) == 4

    def test_payload_round_trip(self, module):
        config = _config(module)
        result = AdaptiveScheduler(
            module, [config], AdaptiveConfig(max_measurements=100)
        ).run([3, 17])
        restored = AdaptiveResult.from_payload(result.to_payload())
        assert restored.module_id == result.module_id
        assert restored.adaptive == result.adaptive
        assert restored.rounds == result.rounds
        for a, b in zip(restored.estimates, result.estimates):
            assert a == b

    def test_payload_kind_checked(self):
        with pytest.raises(MeasurementError):
            AdaptiveResult.from_payload({"kind": "campaign"})

    def test_obs_counters(self, module):
        from repro import obs

        config = _config(module)
        with obs.tracing() as recorder:
            result = AdaptiveScheduler(
                module, [config], AdaptiveConfig(max_measurements=100)
            ).run([3, 17])
        assert recorder.counters["adaptive.trials"] == result.trials_spent
        assert recorder.counters["adaptive.rounds"] == result.rounds
        assert recorder.counters[
            f"adaptive.stop.{STOP_CONVERGED}"
        ] == len(result)
        assert "adaptive.run_pairs" in recorder.spans

    def test_tracing_never_perturbs_results(self, module):
        from repro import obs

        config = _config(module)

        def run():
            return AdaptiveScheduler(
                module, [config], AdaptiveConfig(max_measurements=100)
            ).run([3, 17])

        plain = run()
        with obs.tracing():
            traced = run()
        assert [e.estimate for e in plain.estimates] == (
            [e.estimate for e in traced.estimates]
        )


class TestDriverProtocol:
    def test_rejects_empty_inputs(self):
        config = TestConfig(CHECKERED0, t_agg_on_ns=35.0)
        with pytest.raises(MeasurementError):
            AdaptiveDriver("X", [], [config])
        with pytest.raises(MeasurementError):
            AdaptiveDriver("X", [(0, 1)], [])
        with pytest.raises(MeasurementError):
            AdaptiveDriver("X", [(0, 1), (0, 1)], [config])

    def test_round_discipline(self, module):
        config = _config(module)
        driver = AdaptiveDriver(
            module.module_id, [(0, 3)], [config],
            AdaptiveConfig(max_measurements=50),
        )
        requests = driver.next_requests()
        assert len(requests) == 1
        # Planning again before ingesting is a protocol violation.
        with pytest.raises(MeasurementError):
            driver.next_requests()
        # Finishing mid-round too.
        with pytest.raises(MeasurementError):
            driver.finish()
        replies = measure_requests(module, requests)
        driver.ingest(replies)
        # Ingesting an unrequested key fails.
        with pytest.raises(MeasurementError):
            driver.ingest([(999, 1.0, [1.0])])

    def test_never_flipped_via_synthetic_replies(self):
        config = TestConfig(CHECKERED0, t_agg_on_ns=35.0)
        adaptive = AdaptiveConfig(min_measurements=4, max_measurements=8)
        driver = AdaptiveDriver("X", [(0, 1)], [config], adaptive)
        requests = driver.next_requests()
        key, _, _, _, start, stop = requests[0]
        # All-NaN measurements: the sweep never flips.
        driver.ingest([(key, 10_000.0, [float("nan")] * (stop - start))])
        assert driver.next_requests() == []
        result = driver.finish()
        assert result.estimates[0].stopping_reason == STOP_NEVER_FLIPPED
        assert result.estimates[0].n_valid == 0
        assert result.estimates[0].estimate != result.estimates[0].estimate

    def test_budget_reallocation_counter(self):
        """Two rows, one noisy and one stable: once the stable row's CV
        drops below the noisy row's, the noisy row is funded first; when
        the budget then starves the stable (earlier-key) row, the funded
        noisy row counts as a reallocation."""
        config = TestConfig(CHECKERED0, t_agg_on_ns=35.0)
        adaptive = AdaptiveConfig(
            min_measurements=4, max_measurements=64,
            rel_precision=1e-6, budget=10_000,
        )
        driver = AdaptiveDriver("X", [(0, 1), (0, 2)], [config], adaptive)
        sweep = HammerSweep.from_guess(10_000.0)
        grid = sweep.grid()
        rng = np.random.default_rng(7)

        def reply(request, spread):
            key, _, _, _, start, stop = request
            picks = rng.integers(0, spread, stop - start)
            return (key, 10_000.0, [float(grid[p]) for p in picks])

        spreads = {0: 1, 1: 200}  # key 0 stable, key 1 noisy
        rounds = 0
        while True:
            requests = driver.next_requests()
            if not requests:
                break
            rounds += 1
            driver.ingest([
                reply(request, spreads.get(request[0], 1))
                for request in requests
            ])
            if rounds > 50:
                raise AssertionError("driver failed to terminate")
        result = driver.finish()
        by_row = {e.row: e for e in result.estimates}
        # The noisy row consumed more measurements: budget flowed to the
        # row whose running CV stayed high.
        assert by_row[2].n_measured > by_row[1].n_measured
        assert by_row[1].stopping_reason == STOP_CONVERGED
        assert by_row[2].stopping_reason in (STOP_BUDGET, STOP_EXHAUSTED)
