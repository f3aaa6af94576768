"""Tests for the tested-device catalog (Tables 1 and 7)."""

import pytest

from repro.chips import (
    ALL_SPECS,
    DDR4_SPECS,
    FOUNDATIONAL_SPECS,
    HBM2_SPECS,
    build_module,
    spec,
    vrd_params_for,
)
from repro.chips.vendors import VENDORS, vendor
from repro.dram.cells import CellLayoutKind
from repro.errors import CatalogError


def test_counts_match_paper():
    # 21 DDR4 modules and 4 HBM2 chips (Table 1).
    assert len(DDR4_SPECS) == 21
    assert len(HBM2_SPECS) == 4
    assert len(ALL_SPECS) == 25
    # The foundational study covers 14 devices (Figs. 3-5 x-axis).
    assert len(FOUNDATIONAL_SPECS) == 14


def test_manufacturer_split():
    per_vendor = {}
    for device in DDR4_SPECS:
        per_vendor.setdefault(device.manufacturer, []).append(device)
    assert len(per_vendor["H"]) == 7
    assert len(per_vendor["M"]) == 7
    assert len(per_vendor["S"]) == 7


def test_total_ddr4_chip_count_is_160():
    assert sum(device.chips for device in DDR4_SPECS) == 160


def test_lookup():
    assert spec("M1").module_id == "M1"
    assert spec("Chip0").standard == "HBM2"
    with pytest.raises(CatalogError):
        spec("Z9")


def test_enorm_monotone_in_n():
    # Table 7: more measurements always tighten the expected normalized
    # minimum (median and max are non-increasing in N).
    for device in ALL_SPECS:
        medians = [device.enorm[n][0] for n in (1, 5, 50, 500)]
        assert medians == sorted(medians, reverse=True)


def test_vendor_profiles_cover_findings():
    # Finding 13: a different worst pattern per manufacturer.
    worst = {
        key: max(profile.pattern_depth, key=profile.pattern_depth.get)
        for key, profile in VENDORS.items()
    }
    assert worst["M"] == "checkered0"
    assert worst["S"] == "rowstripe1"
    assert worst["S-HBM"] == "rowstripe0"
    assert worst["H"] == "checkered1"
    with pytest.raises(CatalogError):
        vendor("Q")


def test_vrd_params_rowpress_anchor_exact():
    """The tau/alpha derivation must hit Table 7's tRAS/tREFI RDT ratio."""
    for device in ALL_SPECS:
        params = vrd_params_for(device)
        timing = device.timing

        def g(t):
            return 1.0 / (
                1.0 + (t / params.taggon_rdt_tau_ns) ** params.taggon_rdt_alpha
            )

        ratio = g(timing.tRAS) / g(timing.tREFI)
        expected = device.min_rdt_tras / device.min_rdt_trefi
        assert ratio == pytest.approx(expected, rel=1e-9), device.module_id


def test_vrd_params_scale_with_targets():
    # Modules with larger Table 7 medians get deeper shallow traps.
    weak = vrd_params_for(spec("H0"))   # median 1.04
    strong = vrd_params_for(spec("M6"))  # median 1.09
    assert strong.depth_scale > weak.depth_scale
    # Worst-row targets drive the deep-trap depth.
    assert vrd_params_for(spec("S0")).big_trap_depth > vrd_params_for(
        spec("H2")
    ).big_trap_depth


def test_build_module_kinds_and_determinism():
    ddr4 = build_module("M1", seed=5)
    assert ddr4.kind == "DDR4"
    hbm = build_module("Chip1", seed=5)
    assert hbm.kind == "HBM2"
    again = build_module("M1", seed=5)
    assert (
        ddr4.fault_model.process(0, 7).base_rdt
        == again.fault_model.process(0, 7).base_rdt
    )


def test_m0_has_row_uniform_layout():
    # Sec. 5.6 measures whole true-/anti-cell rows on module M0.
    m0 = build_module("M0")
    assert m0.cell_layout.kind is CellLayoutKind.ROW_BLOCKS
    other = build_module("M1")
    assert other.cell_layout.kind is CellLayoutKind.MIXED


def test_density_parsing_and_labels():
    device = spec("S4")
    assert device.density == "4Gb"
    assert "S4" in device.label()


def test_date_codes_from_table1():
    assert spec("H2").date_code == "43-18"
    assert spec("M5").date_code == "10-24"
    assert spec("S3").date_code == "20-23"
