"""Tests for characterization campaigns."""

import numpy as np
import pytest

from repro.core.campaign import Campaign, select_vulnerable_rows
from repro.core.config import TestConfig, standard_configs
from repro.core.patterns import ALL_PATTERNS, CHECKERED0
from repro.errors import MeasurementError
from tests.conftest import make_module
from tests.differential.harness import reference_campaign


def small_configs(module, patterns=ALL_PATTERNS[:2]):
    return list(
        standard_configs(
            module.timing,
            patterns=patterns,
            temperatures=(50.0,),
            t_agg_on_values=(module.timing.tRAS,),
        )
    )


def test_select_vulnerable_rows_prefers_low_rdt(module):
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    rows = select_vulnerable_rows(
        module, config, block_rows=64, per_block=5, probe_repeats=3
    )
    assert len(rows) == 15
    assert len(set(rows)) == 15
    # Selected rows must come from the three probed blocks.
    n = module.geometry.n_rows
    blocks = set(range(64)) | set(range(n // 2 - 32, n // 2 + 32)) | set(
        range(n - 64, n)
    )
    assert set(rows) <= blocks


def test_select_rejects_oversized_block(module):
    config = TestConfig(CHECKERED0, t_agg_on_ns=35.0)
    with pytest.raises(MeasurementError):
        select_vulnerable_rows(module, config, block_rows=10**7)


def test_campaign_runs_all_pairs(module):
    configs = small_configs(module)
    campaign = Campaign(module, configs, n_measurements=100)
    result = campaign.run([10, 20, 30])
    assert len(result) == len(configs) * 3
    assert result.rows() == [10, 20, 30]
    assert len(result.for_row(10)) == len(configs)


def test_campaign_metrics(module):
    configs = small_configs(module)
    result = Campaign(module, configs, n_measurements=300).run([10, 20, 30, 40])
    cv = result.max_cv_per_row()
    assert set(cv) == {10, 20, 30, 40}
    assert all(value >= 0 for value in cv.values())
    s_curve = result.cv_s_curve()
    assert list(s_curve) == sorted(s_curve)
    assert 0.0 <= result.fraction_always_varying() <= 1.0
    dist = result.expected_normalized_min_distribution(1)
    assert dist.shape == (len(result),)
    assert (dist >= 1.0).all()
    probs = result.probability_of_min_distribution(1)
    assert ((probs > 0) & (probs <= 1)).all()


def test_campaign_filter_by_pattern(module):
    configs = small_configs(module)
    result = Campaign(module, configs, n_measurements=100).run([10])
    only = result.filter(lambda obs: obs.config.pattern.name == "rowstripe0")
    assert len(only) == 1


def test_campaign_validation(module):
    configs = small_configs(module)
    with pytest.raises(MeasurementError):
        Campaign(module, configs, n_measurements=1)
    with pytest.raises(MeasurementError):
        Campaign(module, configs, n_measurements=100).run([])


def test_batched_campaign_identical_to_reference(module):
    """The packed device fast path must reproduce the per-row guess +
    measure loop observation for observation, bit for bit."""
    configs = small_configs(module)
    rows = [10, 20, 20, 30]  # duplicate pair re-measures identically
    batched = Campaign(module, configs, n_measurements=60).run(rows)
    reference = reference_campaign(
        module, configs, 60, [(0, row) for row in rows]
    )
    assert len(batched) == len(reference)
    for fast, slow in zip(batched.observations, reference.observations):
        assert (fast.bank, fast.row, fast.config) == (
            slow.bank,
            slow.row,
            slow.config,
        )
        assert fast.series.grid_step == slow.series.grid_step
        np.testing.assert_array_equal(fast.series.values, slow.series.values)
