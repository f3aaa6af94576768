"""Tests for the retention model."""

import pytest

from repro.dram.retention import RetentionModel
from repro.errors import ConfigurationError
from repro.units import ms


def make_model(**overrides):
    return RetentionModel(
        row_bits=8192, t_refw_ns=ms(64.0), seed=1, module_id="T", **overrides
    )


def test_no_flips_within_refresh_window():
    model = make_model()
    for row in range(50):
        assert model.retention_flips(0, row, ms(64.0)) == []


def test_flips_far_beyond_horizon():
    model = make_model()
    horizon = model.vrt_cell(0, 3).high_retention_ns
    flips = model.retention_flips(0, 3, horizon * 10)
    assert len(flips) == model.weak_cells
    assert all(0 <= bit < 8192 for bit in flips)


def test_gradual_decay():
    model = make_model()
    horizon = model.vrt_cell(0, 3).high_retention_ns
    early = model.retention_flips(0, 3, horizon * 1.1)
    late = model.retention_flips(0, 3, horizon * 3.0)
    assert len(early) <= len(late)


def test_horizon_above_window():
    model = make_model()
    for row in range(100):
        assert model.vrt_cell(0, row).high_retention_ns > ms(64.0)


def test_deterministic_per_row():
    a = make_model()
    b = make_model()
    assert a.vrt_cell(1, 9).high_retention_ns == b.vrt_cell(1, 9).high_retention_ns


def test_validation():
    with pytest.raises(ConfigurationError):
        make_model(median_horizon_windows=0.5)
    with pytest.raises(ConfigurationError):
        make_model(weak_cells=0)
    model = make_model()
    with pytest.raises(ConfigurationError):
        model.retention_flips(0, 0, -1.0)
