"""Tests for the shared figure drivers."""

import pytest

from repro import obs
from repro.analysis import figures
from repro.analysis.figures import (
    campaigns_for,
    foundational_latent_series,
    foundational_victim,
    foundational_victim_series,
    module_campaign,
    victim_threshold_for,
)
from repro.chips import spec
from repro.dram.faults import ModuleFaultModel
from repro.errors import MeasurementError
from repro.rng import DEFAULT_SEED
from tests.differential.harness import scalar_victim_scan


@pytest.fixture
def cold_memo():
    figures._victim_probe.cache_clear()
    yield figures._victim_probe
    figures._victim_probe.cache_clear()


@pytest.fixture
def probe_calls(monkeypatch):
    """Counts calls of the fault model's batched probe."""
    calls = []
    probe = ModuleFaultModel.probe_guess_means

    def counting(self, *args, **kwargs):
        calls.append(args)
        return probe(self, *args, **kwargs)

    monkeypatch.setattr(ModuleFaultModel, "probe_guess_means", counting)
    return calls


def test_victim_threshold_adapts_to_hbm():
    assert victim_threshold_for(spec("M1")) == 40_000.0
    assert victim_threshold_for(spec("Chip3")) > 40_000.0


def test_foundational_series_reproducible():
    a = foundational_victim_series("M1", 300)
    b = foundational_victim_series("M1", 300)
    assert a.row == b.row
    assert a.min == b.min and a.max == b.max


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


def test_repeated_victim_scan_probes_once(cold_memo, probe_calls):
    with obs.tracing() as recorder:
        first = foundational_victim("M1", candidate_rows=64)
        second = foundational_victim("M1", candidate_rows=64)
    assert len(probe_calls) == 1
    assert first[1] == second[1]
    assert first[0] is not second[0]
    assert first[2] == second[2]
    counters = recorder.snapshot()["counters"]
    assert counters["figures.victim_probe.miss"] == 1
    assert counters["figures.victim_probe.hit"] == 1


def test_victim_memo_keys_on_seed_and_candidates(cold_memo, probe_calls):
    foundational_victim("M1", candidate_rows=64)
    foundational_victim("M1", DEFAULT_SEED + 1, candidate_rows=64)
    foundational_victim("M1", candidate_rows=32)
    foundational_victim("H1", candidate_rows=64)
    assert len(probe_calls) == 4
    assert cold_memo.cache_info().currsize == 4


def test_victim_series_identical_warm_and_cold(cold_memo, probe_calls):
    def outputs(cold):
        if cold:
            cold_memo.cache_clear()
        series = foundational_victim_series("M1", 300, candidate_rows=64)
        if cold:
            cold_memo.cache_clear()
        latent = foundational_latent_series("M1", 300, candidate_rows=64)
        return series.row, series.values.tolist(), latent.tolist()

    foundational_victim("M1", candidate_rows=64)
    warm = outputs(cold=False)
    assert len(probe_calls) == 1
    assert outputs(cold=True) == warm
    assert len(probe_calls) == 3


def test_threshold_checked_after_cached_scan(cold_memo, monkeypatch):
    foundational_victim("M1", candidate_rows=16)
    monkeypatch.setattr(figures, "victim_threshold_for", lambda device: 1.0)
    with pytest.raises(MeasurementError, match="no row among 16"):
        foundational_victim("M1", candidate_rows=16)
    assert cold_memo.cache_info().hits == 1


@pytest.mark.parametrize("candidate_rows", [-3, 0, 4097])
def test_candidate_rows_outside_bank_rejected(
    candidate_rows, cold_memo, probe_calls
):
    with pytest.raises(MeasurementError, match=r"outside \[1, 4096\]"):
        foundational_victim("M1", candidate_rows=candidate_rows)
    assert probe_calls == []
    assert cold_memo.cache_info().misses == 0


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
