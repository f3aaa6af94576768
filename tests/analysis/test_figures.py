"""Tests for the shared figure drivers."""

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    campaigns_for,
    foundational_victim,
    foundational_victim_series,
    module_campaign,
    victim_threshold_for,
)
from repro.chips import build_module, spec
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.core.rdt import find_victim
from repro.errors import MeasurementError
from repro.rng import DEFAULT_SEED


def test_victim_threshold_adapts_to_hbm():
    assert victim_threshold_for(spec("M1")) == 40_000.0
    assert victim_threshold_for(spec("Chip3")) > 40_000.0


def test_foundational_series_reproducible():
    a = foundational_victim_series("M1", 300)
    b = foundational_victim_series("M1", 300)
    assert a.row == b.row
    assert a.min == b.min and a.max == b.max


def scalar_victim_scan(module_id, seed, candidate_rows, threshold=None):
    """The per-row victim scan: scalar ``guess_rdt`` on every candidate,
    then Algorithm 1's find_victim over the rows sorted by guess."""
    device = spec(module_id)
    module = build_module(device, seed=seed)
    module.disable_interference_sources()
    meter = FastRdtMeter(module, bank=0)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    guesses = sorted(
        (meter.guess_rdt(row, config), row) for row in range(candidate_rows)
    )
    if threshold is None:
        threshold = victim_threshold_for(device)
    _, victim = find_victim(
        meter, rows=[row for _, row in guesses], config=config,
        threshold=threshold,
    )
    return victim


@pytest.mark.parametrize("seed", [DEFAULT_SEED, DEFAULT_SEED + 1])
@pytest.mark.parametrize("module_id", ["H1", "M1", "S0", "Chip1"])
def test_victim_matches_scalar_scan(module_id, seed):
    _, victim, _ = foundational_victim(module_id, seed, candidate_rows=64)
    assert victim == scalar_victim_scan(module_id, seed, 64)


def test_victim_scan_without_qualifying_row(monkeypatch):
    with pytest.raises(MeasurementError) as expected:
        scalar_victim_scan("M1", DEFAULT_SEED, 16, threshold=1.0)
    monkeypatch.setattr(figures, "victim_threshold_for", lambda device: 1.0)
    with pytest.raises(MeasurementError) as raised:
        foundational_victim("M1", candidate_rows=16)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(MeasurementError):
        foundational_victim("M1", candidate_rows=0)


def test_module_campaign_small():
    result = module_campaign(
        "H2", rows_per_block=2, n_measurements=200,
    )
    # 6 rows x 4 patterns.
    assert len(result) == 24
    assert len(result.rows()) == 6


def test_campaigns_for_multiple_modules():
    results = campaigns_for(["M0", "S4"], rows_per_block=1, n_measurements=100)
    assert set(results) == {"M0", "S4"}


def test_cross_protocol_campaigns_cover_every_protocol():
    from repro.analysis.figures import (
        PROTOCOL_REPRESENTATIVES,
        cross_protocol_campaigns,
    )
    from repro.errors import ConfigurationError

    results = cross_protocol_campaigns(rows_per_block=1, n_measurements=100)
    assert set(results) == {"DDR4", "DDR5", "HBM2"}
    for protocol, result in results.items():
        assert result.module_id == PROTOCOL_REPRESENTATIVES[protocol]
        assert spec(result.module_id).protocol == protocol
        assert len(result) > 0
    with pytest.raises(ConfigurationError):
        cross_protocol_campaigns(("LPDDR4",))
