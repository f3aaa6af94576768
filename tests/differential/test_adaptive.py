"""Adaptive scheduler vs exhaustive oracle, over randomized seeds.

**Accuracy** is statistical: each adaptive estimate must land within its
*reported* confidence interval of the exhaustive oracle's mean — widened
by the oracle mean's own sampling noise, since the oracle's
``max_measurements``-sample mean is itself an estimate of the same latent
threshold. Fixed seeds make the assertion deterministic. The other
tests hold the trial-count contract and spot-check the harness's
``adaptive`` pair (per-row vs batched measurement requests).
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveConfig,
    AdaptiveScheduler,
    CHECKERED0,
    FastRdtMeter,
    TestConfig,
)
from tests.differential.harness import SEEDS, adaptive_fast, adaptive_oracle

_ROWS = [3, 17, 40, 100]
_N_MAX = 200


def _workload(seed: int):
    from repro.chips import build_module

    module = build_module("M1", seed=seed)
    module.disable_interference_sources()
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    return module, config


@pytest.mark.parametrize("seed", SEEDS)
def test_estimates_within_reported_confidence_interval(seed):
    module, config = _workload(seed)
    result = AdaptiveScheduler(
        module, [config], AdaptiveConfig(max_measurements=_N_MAX)
    ).run(_ROWS)
    meter = FastRdtMeter(module, 0)
    module.set_temperature(config.temperature_c)
    for estimate in result.estimates:
        series = meter.measure_series(estimate.row, config, _N_MAX)
        oracle_mean = float(np.nanmean(series.values))
        oracle_std = float(np.nanstd(series.values))
        bound = estimate.ci_half_width + 3 * oracle_std / np.sqrt(_N_MAX)
        assert abs(estimate.estimate - oracle_mean) <= bound, (
            f"row {estimate.row}: adaptive {estimate.estimate:.1f} vs "
            f"oracle {oracle_mean:.1f} exceeds bound {bound:.1f}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_spends_far_fewer_trials(seed):
    """The DiscoRD-style perf contract, a trial count rather than a
    timing: at least 10x fewer hammer trials than the exhaustive sweep,
    on arbitrary seeds."""
    module, config = _workload(seed)
    result = AdaptiveScheduler(
        module, [config], AdaptiveConfig(max_measurements=_N_MAX)
    ).run(_ROWS)
    assert result.trial_reduction_estimate >= 10


def test_harness_pair_agrees_on_budgeted_workloads():
    """The harness case randomizes rows and budget; spot-check one seed
    here so a budget-path divergence fails with a readable diff even if
    the parametrized sweep is filtered out."""
    seed = SEEDS[0]
    assert adaptive_oracle(seed) == adaptive_fast(seed)
