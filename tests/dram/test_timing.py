"""Tests for JEDEC timing presets."""

from dataclasses import replace

import pytest

from repro.dram import timing as t
from repro.errors import ConfigurationError
from tests.conftest import make_module
from tests.differential.harness import with_timing


def test_table6_values_exact():
    # The DDR5 preset must carry the paper's Table 6 numbers verbatim.
    p = t.DDR5_8800
    assert p.tRRD_S == 1.816
    assert p.tCCD_S == 1.816
    assert p.tCCD_L == 5.0
    assert p.tCCD_L_WR == 20.0
    assert p.tRCD == 14.09
    assert p.tRP == 14.09
    assert p.tRAS == 32.0
    assert p.tRTP == 7.5
    assert p.tWR == 30.0


def test_ddr4_reference_on_time():
    # "minimum tAggOn (e.g., 35 ns)" for the DDR4 modules.
    assert t.DDR4_3200.tRAS == 35.0


def test_trc_is_tras_plus_trp():
    for preset in t.PRESETS.values():
        assert preset.tRC == pytest.approx(preset.tRAS + preset.tRP)


def test_with_overrides():
    module = make_module()
    before = module.timing
    with_timing(module, tRAS=40.0)
    assert module.timing.tRAS == 40.0
    assert module.timing.tRCD == before.tRCD
    assert all(bank.timing is module.timing for bank in module.banks)


def test_invalid_timing_rejected():
    with pytest.raises(ConfigurationError):
        replace(t.DDR4_3200, tRP=-1.0)
    with pytest.raises(ConfigurationError):
        replace(t.DDR4_3200, tRAS=1.0)  # below tRCD


def test_presets_lookup():
    assert set(t.PRESETS) >= {
        "DDR4-2400", "DDR4-2666", "DDR4-2933", "DDR4-3200",
        "DDR5-8800", "HBM2-2000",
    }
