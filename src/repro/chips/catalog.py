"""The tested-device catalog (paper Tables 1 and 7).

Each :class:`ModuleSpec` carries the identity columns of Tables 1/7 plus the
published summary statistics we calibrate the VRD model against:

* the median and maximum *expected normalized value of the minimum RDT* at
  N = 1 (Table 7) set the typical and worst-case temporal variation, which
  fix the shallow-trap depth scale and the deep-trap depth;
* the minimum observed RDT at ``tAggOn = tRAS`` anchors the absolute RDT
  scale;
* the ratio of the minimum observed RDT at ``tRAS`` to that at ``tREFI``
  fixes the RowPress response curve exactly (tau at the geometric mean of
  the two on-times makes the ratio constraint closed-form).

The derivations live in :func:`vrd_params_for`; :func:`build_module`
assembles a ready-to-test :class:`~repro.dram.module.DramModule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.chips.vendors import vendor
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.faults import VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import (
    MirroredFoldMapping,
    ScrambledBlockMapping,
    SequentialMapping,
)
from repro.dram.module import DramModule
from repro.dram.timing import PRESETS, TimingParams
from repro.errors import CatalogError
from repro.rng import DEFAULT_SEED

#: Calibration constant relating the Table 7 median expected-normalized-min
#: target to the shallow-trap depth scale (fitted once against the model;
#: see tests/test_chips/test_calibration.py).
_DEPTH_CAL = 1.0

@dataclass(frozen=True)
class ModuleSpec:
    """Identity and published summary statistics of one tested device."""

    module_id: str
    manufacturer: str  # H / M / S
    standard: str  # DDR4 / DDR5 / HBM2
    timing_name: str
    module_part: str
    chip_part: str
    size_gb: int
    ranks: int
    chips: int
    org: str  # x8 / x16 / x2048 (HBM2)
    density: str  # 4Gb / 8Gb / 16Gb
    die_rev: str
    date_code: str  # ww-yy or N/A
    #: Table 7: {N: (median, max)} expected normalized min RDT.
    enorm: Mapping[int, Tuple[float, float]]
    min_rdt_tras: float
    min_rdt_trefi: float

    @property
    def vendor_key(self) -> str:
        if self.standard == "HBM2":
            return "S-HBM"
        return self.manufacturer

    @property
    def timing(self) -> TimingParams:
        return PRESETS[self.timing_name]

    @property
    def protocol(self) -> str:
        """The protocol family the device declares (= its standard)."""
        return self.standard

    def label(self) -> str:
        return f"{self.module_id} ({self.density}-{self.die_rev}, {self.org})"


def _spec(
    module_id: str,
    manufacturer: str,
    timing_name: str,
    module_part: str,
    chip_part: str,
    size_gb: int,
    ranks: int,
    chips: int,
    org: str,
    density: str,
    die_rev: str,
    date_code: str,
    enorm_rows: Tuple[Tuple[float, float], ...],
    min_tras: float,
    min_trefi: float,
    standard: str = "DDR4",
) -> ModuleSpec:
    n_values = (1, 5, 50, 500)
    return ModuleSpec(
        module_id=module_id,
        manufacturer=manufacturer,
        standard=standard,
        timing_name=timing_name,
        module_part=module_part,
        chip_part=chip_part,
        size_gb=size_gb,
        ranks=ranks,
        chips=chips,
        org=org,
        density=density,
        die_rev=die_rev,
        date_code=date_code,
        enorm={n: pair for n, pair in zip(n_values, enorm_rows)},
        min_rdt_tras=min_tras,
        min_rdt_trefi=min_trefi,
    )


#: The 21 DDR4 modules of Tables 1/7. enorm rows are Table 7's
#: (median, max) pairs for N = 1, 5, 50, 500.
DDR4_SPECS: Tuple[ModuleSpec, ...] = (
    _spec("H0", "H", "DDR4-2666", "Unknown", "H5AN8G8NJJR-VKC", 16, 2, 8, "x8",
          "8Gb", "J", "N/A",
          ((1.04, 1.59), (1.03, 1.47), (1.01, 1.28), (1.00, 1.10)), 23238, 9436),
    _spec("H1", "H", "DDR4-3200", "HMAA4GU7CJR8N-XN", "H5ANAG8NCJR-XNC", 32, 2, 8,
          "x8", "16Gb", "C", "36-21",
          ((1.07, 1.51), (1.04, 1.46), (1.02, 1.31), (1.00, 1.12)), 7835, 1941),
    _spec("H2", "H", "DDR4-2400", "HMA81GU7AFR8N-UH", "H5AN8G8NAFR-UHC", 8, 1, 8,
          "x8", "8Gb", "A", "43-18",
          ((1.05, 1.35), (1.03, 1.33), (1.02, 1.27), (1.00, 1.10)), 25606, 12143),
    _spec("H3", "H", "DDR4-2933", "HMA81GU7DJR8N-WM", "H5AN8G8NDJR-WMC", 8, 1, 8,
          "x8", "8Gb", "D", "38-19",
          ((1.05, 1.54), (1.04, 1.51), (1.02, 1.37), (1.00, 1.09)), 9804, 4185),
    _spec("H4", "H", "DDR4-2933", "HMA81GU7DJR8N-WM", "H5AN8G8NDJR-WMC", 8, 1, 8,
          "x8", "8Gb", "D", "38-19",
          ((1.05, 1.63), (1.04, 1.54), (1.02, 1.41), (1.00, 1.12)), 10750, 2941),
    _spec("H5", "H", "DDR4-3200", "KSM26ES8/8HD", "H5AN8G8NDJR-XNC", 8, 1, 8,
          "x8", "8Gb", "D", "24-20",
          ((1.05, 1.56), (1.03, 1.52), (1.02, 1.35), (1.00, 1.13)), 13572, 3185),
    _spec("H6", "H", "DDR4-3200", "KSM26ES8/8HD", "H5AN8G8NDJR-XNC", 8, 1, 8,
          "x8", "8Gb", "D", "24-20",
          ((1.05, 1.70), (1.03, 1.67), (1.02, 1.54), (1.00, 1.28)), 9680, 3770),
    _spec("M0", "M", "DDR4-3200", "MTA4ATF1G64HZ-3G2E1", "MT40A1G16KD-062E:E",
          8, 1, 4, "x16", "16Gb", "E", "46-20",
          ((1.06, 1.45), (1.04, 1.35), (1.02, 1.21), (1.00, 1.07)), 4980, 2025),
    _spec("M1", "M", "DDR4-3200", "MTA18ASF4G72HZ-3G2F1Z1", "MT40A2G8SA-062E:F",
          32, 2, 8, "x8", "16Gb", "F", "37-22",
          ((1.08, 1.78), (1.05, 1.70), (1.03, 1.40), (1.00, 1.10)), 4250, 1796),
    _spec("M2", "M", "DDR4-3200", "MTA18ASF4G72HZ-3G2F1Z1", "MT40A2G8SA-062E:F",
          32, 2, 8, "x8", "16Gb", "F", "37-22",
          ((1.08, 1.47), (1.06, 1.41), (1.03, 1.28), (1.00, 1.08)), 4741, 1620),
    _spec("M3", "M", "DDR4-3200", "KSM32ES8/8MR", "Unknown", 8, 1, 8, "x8",
          "8Gb", "R", "12-24",
          ((1.08, 1.46), (1.05, 1.40), (1.03, 1.24), (1.01, 1.06)), 4691, 1788),
    _spec("M4", "M", "DDR4-3200", "KSM32ES8/8MR", "Unknown", 8, 1, 8, "x8",
          "8Gb", "R", "12-24",
          ((1.08, 1.84), (1.05, 1.74), (1.03, 1.42), (1.01, 1.18)), 3686, 2320),
    _spec("M5", "M", "DDR4-3200", "KSM32SED8/16MR", "MT40A1G8SA-062E:R", 16, 2,
          8, "x8", "8Gb", "R", "10-24",
          ((1.08, 1.83), (1.05, 1.51), (1.03, 1.35), (1.01, 1.13)), 4675, 2177),
    _spec("M6", "M", "DDR4-3200", "KSM32ES8/16MF", "MT40A2G8SA-062E:F", 16, 1,
          8, "x8", "16Gb", "F", "12-24",
          ((1.09, 1.63), (1.06, 1.51), (1.03, 1.37), (1.01, 1.17)), 4340, 1916),
    _spec("S0", "S", "DDR4-2666", "M378A2K43CB1-CTD", "K4A8G085WC-BCTD", 16, 2,
          8, "x8", "8Gb", "C", "N/A",
          ((1.04, 3.21), (1.03, 2.63), (1.01, 2.33), (1.00, 1.27)), 12152, 1965),
    _spec("S1", "S", "DDR4-2666", "M393A1K43BB1-CTD", "K4A8G085WB-BCTD", 8, 1,
          8, "x8", "8Gb", "B", "53-20",
          ((1.04, 1.85), (1.01, 1.83), (1.00, 1.79), (1.00, 1.41)), 31248, 3326),
    _spec("S2", "S", "DDR4-2666", "M378A1K43DB2-CTD", "K4A8G085WD-BCTD", 8, 1,
          8, "x8", "8Gb", "D", "10-21",
          ((1.05, 1.85), (1.03, 1.67), (1.01, 1.49), (1.00, 1.13)), 6230, 1664),
    _spec("S3", "S", "DDR4-3200", "M471A4G43AB1-CWE", "K4AAG085WA-BCWE", 32, 2,
          8, "x8", "16Gb", "A", "20-23",
          ((1.05, 1.60), (1.03, 1.48), (1.01, 1.37), (1.00, 1.14)), 8390, 4355),
    _spec("S4", "S", "DDR4-2666", "M471A5244CB0-CRC", "Unknown", 4, 1, 4,
          "x16", "4Gb", "C", "19-19",
          ((1.04, 1.73), (1.03, 1.70), (1.01, 1.52), (1.00, 1.13)), 12418, 1780),
    _spec("S5", "S", "DDR4-3200", "M391A2G43BB2-CWE", "Unknown", 16, 1, 8,
          "x16", "16Gb", "B", "15-23",
          ((1.05, 1.50), (1.03, 1.39), (1.02, 1.25), (1.00, 1.07)), 6685, 2150),
    _spec("S6", "S", "DDR4-3200", "M391A2G43BB2-CWE", "Unknown", 16, 1, 8,
          "x16", "16Gb", "B", "15-23",
          ((1.05, 1.90), (1.03, 1.72), (1.02, 1.24), (1.00, 1.06)), 7575, 3400),
)

#: The four HBM2 chips (all Samsung).
HBM2_SPECS: Tuple[ModuleSpec, ...] = tuple(
    _spec(chip_id, "S", "HBM2-2000", "Unknown", "Unknown", 8, 1, 1, "x2048",
          "8Gb", "N/A", "N/A", rows, min_tras, min_trefi, standard="HBM2")
    for chip_id, rows, min_tras, min_trefi in (
        ("Chip0", ((1.05, 1.73), (1.02, 1.70), (1.00, 1.59), (1.00, 1.19)),
         45136, 1244),
        ("Chip1", ((1.05, 1.82), (1.03, 1.79), (1.00, 1.71), (1.00, 1.37)),
         41664, 2218),
        ("Chip2", ((1.05, 1.72), (1.02, 1.52), (1.00, 1.32), (1.00, 1.09)),
         34720, 1520),
        ("Chip3", ((1.05, 1.89), (1.02, 1.83), (1.00, 1.73), (1.00, 1.23)),
         55553, 1664),
    )
)

#: Four projected DDR5 devices on the Table 6 DDR5-8800 grade. The paper
#: tests no DDR5 parts; these synthetic specs carry Table-7-shaped summary
#: statistics (interpolated between the closest DDR4 vendors' rows) so the
#: cross-protocol figure suite and the DDR5 timing-rule table (REFsb, RFM,
#: eight bank groups) can be exercised end-to-end.
DDR5_SPECS: Tuple[ModuleSpec, ...] = (
    _spec("D0", "H", "DDR5-8800", "Unknown", "Unknown", 16, 1, 8, "x8",
          "16Gb", "A", "N/A",
          ((1.06, 1.55), (1.04, 1.48), (1.02, 1.30), (1.00, 1.11)),
          9600, 2400, standard="DDR5"),
    _spec("D1", "M", "DDR5-8800", "Unknown", "Unknown", 16, 1, 8, "x8",
          "16Gb", "A", "N/A",
          ((1.08, 1.60), (1.05, 1.50), (1.03, 1.32), (1.00, 1.10)),
          4800, 1900, standard="DDR5"),
    _spec("D2", "S", "DDR5-8800", "Unknown", "Unknown", 16, 1, 8, "x8",
          "16Gb", "A", "N/A",
          ((1.05, 1.75), (1.03, 1.62), (1.01, 1.45), (1.00, 1.15)),
          8200, 2050, standard="DDR5"),
    _spec("D3", "S", "DDR5-8800", "Unknown", "Unknown", 32, 2, 8, "x8",
          "16Gb", "B", "N/A",
          ((1.05, 1.58), (1.03, 1.46), (1.01, 1.33), (1.00, 1.12)),
          7400, 2600, standard="DDR5"),
)

#: The tested-device population of the paper (Tables 1/7). Fleet sampling
#: draws from this tuple by index, so its contents and order are frozen —
#: extension devices live in :data:`EXTENDED_SPECS`.
ALL_SPECS: Tuple[ModuleSpec, ...] = DDR4_SPECS + HBM2_SPECS

#: Every known device, including the projected DDR5 parts.
EXTENDED_SPECS: Tuple[ModuleSpec, ...] = ALL_SPECS + DDR5_SPECS

#: The 14 devices of the foundational 100k-measurement study (Figs. 1, 3-5):
#: one module per distinct DDR4 configuration plus the four HBM2 chips.
FOUNDATIONAL_SPECS: Tuple[ModuleSpec, ...] = tuple(
    s for s in ALL_SPECS
    if s.module_id in (
        "H0", "H1", "H2", "H3", "M0", "M1", "M5", "S0", "S1", "S3",
        "Chip0", "Chip1", "Chip2", "Chip3",
    )
)

_BY_ID: Dict[str, ModuleSpec] = {s.module_id: s for s in EXTENDED_SPECS}


def spec(module_id: str) -> ModuleSpec:
    """Look a device spec up by identifier (e.g. ``"M1"`` or ``"Chip0"``)."""
    try:
        return _BY_ID[module_id]
    except KeyError:
        raise CatalogError(
            f"unknown module {module_id!r}; known: {sorted(_BY_ID)}"
        ) from None


def vrd_params_for(device: ModuleSpec) -> VrdModelParams:
    """Derive the VRD model parameters from a device's Table 7 row."""
    profile = vendor(device.vendor_key)
    timing = device.timing

    median_n1, max_n1 = device.enorm[1]
    # The median expected-normalized-min at N=1 decomposes into the everyday
    # shallow-trap cluster (contributing ~2.2x its CV, empirically fitted
    # for this left-skewed multi-state process) plus the rare slow dip that
    # defines the series minimum (~4.5 cluster sigmas + 2 grid steps deep,
    # visited at least once in most 1000-measurement series). Solving
    # excess = 2.2 cv + (4.5 cv + 0.02) for the CV of the *selected* (most
    # vulnerable) rows:
    excess = median_n1 - 1.0
    # Empirically fitted response of the measured median excess to the
    # selected-row CV under this model (see tests/chips/test_calibration).
    cv_target = max(0.004, (excess - 0.030) / 3.3)
    # Selected rows sit low in the spatial distribution, so the
    # vulnerability-severity coupling boosts their depths by ~1.45x; the
    # module-level (typical-row) parameters divide that back out.
    coupling_typical = 1.45
    trap_count_mean = 8.0
    # A gaussian-dominated bulk (the Sec. 4.1 normality observation):
    # the residual carries ~85% of the everyday sigma, the fast shallow
    # traps smooth micro-states into it.
    sigma_resid = 0.85 * cv_target / coupling_typical
    # Shallow traps carry the rest of the variance:
    # var ~= trap_count * E[pi(1-pi)] * E[d^2] = 8 * 0.2 * 2 * s^2.
    trap_share = math.sqrt(max(cv_target**2 - (0.85 * cv_target) ** 2, 1e-10))
    depth_scale = _DEPTH_CAL * trap_share / coupling_typical / math.sqrt(3.2)
    # Deep trap: the worst row's expected-normalized-min ~ 1 / (1 - depth).
    big_trap_depth = max(0.05, 1.0 - 1.0 / max_n1)
    # Rare slow trap: deep enough to sit distinctly below the everyday
    # cluster (its own bin on the guess/100 measurement grid), so the
    # series minimum appears only as often as the trap is occupied.
    rare_trap_depth = (4.5 * cv_target + 0.02) / coupling_typical

    # RowPress response: anchoring tau at the geometric mean of the two
    # on-times makes g(tRAS)/g(tREFI) = ratio exactly solvable for alpha.
    ratio = device.min_rdt_tras / device.min_rdt_trefi
    if ratio <= 1.0:
        raise CatalogError(
            f"{device.module_id}: min RDT at tREFI must be below the tRAS one"
        )
    tau = math.sqrt(timing.tRAS * timing.tREFI)
    alpha = 2.0 * math.log(ratio) / math.log(timing.tREFI / timing.tRAS)

    return VrdModelParams(
        mean_rdt=3.0 * device.min_rdt_tras,
        spatial_sigma=0.28,
        trap_count_mean=trap_count_mean,
        depth_scale=depth_scale,
        big_trap_prob=0.06,
        big_trap_depth=big_trap_depth,
        rare_trap_depth=rare_trap_depth,
        sigma_resid=sigma_resid,
        severity=1.0,
        pattern_depth=dict(profile.pattern_depth),
        pattern_rdt=dict(profile.pattern_rdt),
        taggon_rdt_tau_ns=tau,
        taggon_rdt_alpha=alpha,
        taggon_depth_slope=profile.taggon_depth_slope,
        taggon_depth_quad=profile.taggon_depth_quad,
        temp_rdt_coeff=profile.temp_rdt_coeff,
        temp_depth_coeff=profile.temp_depth_coeff,
    )


def _geometry_for(device: ModuleSpec, compact: bool) -> DramGeometry:
    protocol = device.standard
    # Protocol topology (JESD79-4C / JESD79-5 / JESD235D): DDR4 x8 ranks
    # have 4 bank groups of 4 banks; DDR5 x8 has 8 groups of 4; an HBM2
    # channel splits into 2 pseudo channels of 4 groups x 4 banks. Compact
    # geometries keep the group/pseudo-channel counts that still tile the
    # reduced bank count.
    if compact:
        return DramGeometry(
            n_banks=4,
            n_rows=1 << 12,
            row_bits_per_chip=1024,
            n_chips=device.chips,
            protocol=protocol,
            n_bank_groups=4 if protocol != "HBM2" else 2,
            n_pseudo_channels=2 if protocol == "HBM2" else 1,
        )
    # Full scale: 8 Kibit per-chip rows make the module-level row the
    # paper's 64 Kibit row.
    if protocol == "DDR5":
        return DramGeometry(
            n_banks=32,
            n_rows=1 << 16,
            row_bits_per_chip=8_192,
            n_chips=device.chips,
            protocol="DDR5",
            n_bank_groups=8,
        )
    return DramGeometry(
        n_banks=16,
        n_rows=1 << 17,
        row_bits_per_chip=8_192,
        n_chips=device.chips,
        protocol=protocol,
        n_bank_groups=4,
        n_pseudo_channels=2 if protocol == "HBM2" else 1,
    )


def _mapping_for(device: ModuleSpec):
    """Vendor-flavored logical-to-physical row mapping."""
    if device.manufacturer == "S":
        return MirroredFoldMapping
    if device.manufacturer == "H":
        return ScrambledBlockMapping
    return SequentialMapping


def _cell_layout_for(device: ModuleSpec) -> CellLayout:
    # Module M0 is the device whose measured layout has whole true-cell and
    # anti-cell rows (paper Sec. 5.6); others mix polarity within rows.
    if device.module_id == "M0":
        return CellLayout(CellLayoutKind.ROW_BLOCKS, block_rows=512)
    return CellLayout(CellLayoutKind.MIXED)


def build_module(
    device: "ModuleSpec | str",
    seed: int = DEFAULT_SEED,
    compact: bool = True,
    geometry: Optional[DramGeometry] = None,
) -> DramModule:
    """Instantiate a simulated device from its catalog spec.

    Args:
        device: A :class:`ModuleSpec` or its identifier.
        seed: Root seed; a given (spec, seed) is a fully reproducible chip.
        compact: Use a reduced geometry (4 banks x 4096 rows x 8 Kibit
            rows) — ample for every experiment in the paper while keeping
            bit-level trials cheap. Pass ``False`` for full-scale geometry.
        geometry: Explicit geometry override.
    """
    if isinstance(device, str):
        device = spec(device)
    return DramModule(
        module_id=device.module_id,
        kind=device.standard,
        geometry=geometry or _geometry_for(device, compact),
        timing=device.timing,
        mapping_factory=_mapping_for(device),
        cell_layout=_cell_layout_for(device),
        vrd_params=vrd_params_for(device),
        seed=seed,
    )
