"""Tests for the multi-channel (HBM2) campaign protocol."""

import pytest

from repro.chips import build_module
from repro.core.campaign import Campaign
from repro.core.config import standard_configs
from repro.core.patterns import ALL_PATTERNS
from repro.errors import MeasurementError


def test_run_pairs_across_banks():
    module = build_module("Chip0")
    configs = list(
        standard_configs(
            module.timing,
            patterns=ALL_PATTERNS[:1],
            temperatures=(50.0,),
            t_agg_on_values=(module.timing.tRAS,),
        )
    )
    campaign = Campaign(module, configs, n_measurements=100)
    pairs = [(0, 100), (0, 2000), (1, 100), (1, 3000), (2, 100), (2, 4000)]
    result = campaign.run_pairs(pairs)
    assert len(result) == len(pairs)
    assert {obs.bank for obs in result.observations} == {0, 1, 2}
    # Same physical row index on different channels is a distinct device
    # row: different base RDT.
    by_bank_row = {(obs.bank, obs.row): obs for obs in result.observations}
    banks_rows = list(by_bank_row)
    assert len(banks_rows) == len(pairs)


def test_run_pairs_empty_rejected():
    module = build_module("Chip0")
    configs = list(
        standard_configs(
            module.timing,
            patterns=ALL_PATTERNS[:1],
            temperatures=(50.0,),
            t_agg_on_values=(module.timing.tRAS,),
        )
    )
    with pytest.raises(MeasurementError):
        Campaign(module, configs, n_measurements=100).run_pairs([])
