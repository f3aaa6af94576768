"""The variable-read-disturbance (VRD) fault model.

This module is the device-level substitution for the paper's real DRAM chips
(DESIGN.md Sec. 1). Each row owns:

* a **base RDT** (spatial variation across rows, lognormal);
* a set of fast, shallow :class:`~repro.dram.traps.Trap` objects plus an
  occasional slow, deep trap — the paper's hypothesized trap-assisted
  mechanism (Sec. 4.2). Occupied traps lower the instantaneous RDT;
* a small lognormal residual;
* an ordered list of **weak cells** with increasing flip margins, which
  determines *which bits* flip and how many flip under overdrive.

Test conditions (data pattern, aggressor-row on-time, temperature) scale the
base RDT and the trap depths through per-row response factors, reproducing
the paper's Findings 12-16 (condition-dependent VRD profiles).

Two consumption paths share this model and agree by construction:

* the **bit-level path**: the simulated bank asks for flips given
  accumulated aggressor activations and the stored data (used by the DRAM
  Bender interpreter — the faithful Algorithm 1 route);
* the **fast path**: :meth:`RowVrdProcess.latent_series` vectorizes the
  latent threshold over many measurements for statistics-heavy benchmarks
  (Figs. 1, 3-8). In both paths one latent sample corresponds to one RDT
  measurement (see the dwell-time simplification in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from numpy.random import PCG64, Generator

from repro import obs
from repro.dram.traps import (
    Trap,
    check_series_length,
    latent_blocks,
    log_depth_terms,
    new_occupancy,
    sample_occupancy,
    trap_outputs,
)
from repro.errors import ConfigurationError
from repro.rng import derive

#: Canonical data-pattern keys (paper Table 2). ``pattern_byte`` maps each to
#: the byte written to the *victim* row; aggressors hold the complement.
PATTERN_VICTIM_BYTE: Mapping[str, int] = {
    "rowstripe0": 0x00,
    "rowstripe1": 0xFF,
    "checkered0": 0x55,
    "checkered1": 0xAA,
}

#: Fallback key for non-canonical data contents.
OTHER_PATTERN = "other"

#: The reference aggressor-row on-time (minimum tRAS in DDR4, ns); condition
#: factors are normalized to 1.0 at this point.
REFERENCE_T_AGG_ON = 35.0

#: The reference temperature (Celsius) for condition factors.
REFERENCE_TEMPERATURE = 50.0

#: The nominal wordline voltage (VPP for DDR4, volts). The paper's Sec. 6.5
#: names voltage corners as an unexplored axis; prior work (Yaglikci et
#: al., DSN 2022) shows read disturbance weakens as wordline voltage is
#: reduced below nominal.
REFERENCE_WORDLINE_VOLTAGE = 2.5

#: numpy's ``Generator.geometric`` branch threshold: for ``p`` at or above
#: this value it uses the search method, which consumes exactly one uniform
#: double from the bit stream per drawn value; below it, the inversion
#: method consumes one ziggurat standard exponential instead. The packed
#: fast path (:mod:`repro.dram.fastfaults`) serves search-branch traps from
#: bulk ``rng.random()`` calls and mirrors the inversion branch with scalar
#: ``standard_exponential`` draws.
_GEOM_SEARCH_P = 0.333333333333333333

#: numpy clips geometric inversion values to the int64 ceiling.
_INT64_MAX = 9223372036854775807


def _geometric_search_mirror_ok() -> bool:
    """One-time check that our geometric sampler mirror is exact.

    The fast path re-derives ``rng.geometric(p)``:

    * search branch (``p >= 1/3``): draw ``u = rng.random()``, run numpy's
      search recurrence (``sum/prod`` accumulation in double precision);
    * inversion branch (``p < 1/3``): draw ``e = rng.standard_exponential()``
      (one ziggurat draw), value ``ceil(-e / log1p(-p))`` clipped to int64.

    Array draws consume the bit stream element-sequentially, so alternating
    branches mirror as alternating scalar draws. The mirror is tied to
    numpy's private sampling algorithm, so we verify it once against a
    few seeds covering both branches, the boundary, and a mixed-branch
    array; on any mismatch (e.g. a future numpy changes the sampler) the
    fast path silently falls back to calling ``rng.geometric`` for every
    trap — slower, but still bit-identical to the reference path.
    """
    cases = [
        (1234, (0.7,) * 8),
        (99, (0.34,) * 8),
        (7, (_GEOM_SEARCH_P,) * 8),
        (3, (0.97,) * 8),
        (21, (0.05,) * 8),
        (45, (0.6, 0.02) * 4),  # alternating search/inversion
    ]
    for seed, probs in cases:
        ref_rng = Generator(PCG64(seed))
        mirror_rng = Generator(PCG64(seed))
        reference = ref_rng.geometric(np.array(probs))
        mirrored = []
        for p in probs:
            if p >= _GEOM_SEARCH_P:
                u = mirror_rng.random()
                q = 1.0 - p
                total_p = p
                prod = p
                length = 1
                while u > total_p:
                    prod *= q
                    total_p += prod
                    length += 1
            else:
                draw = mirror_rng.standard_exponential()
                length = min(math.ceil(-draw / math.log1p(-p)), _INT64_MAX)
            mirrored.append(length)
        if list(reference) != mirrored:
            return False
        if ref_rng.bit_generator.state != mirror_rng.bit_generator.state:
            return False
    return True


#: Lazily filled probe result; ``None`` means "not yet evaluated", so the
#: ~1 ms probe only runs in processes that reach a fast path. Tests set it
#: to ``False`` to exercise the fallback paths.
_MIRROR_OK: Optional[bool] = None


def geometric_mirror_ok() -> bool:
    """Whether the geometric-sampler mirror is exact, probed once per
    process (see :func:`_geometric_search_mirror_ok`) and cached."""
    global _MIRROR_OK
    if _MIRROR_OK is None:
        _MIRROR_OK = _geometric_search_mirror_ok()
    return _MIRROR_OK


def classify_pattern(victim_byte: int, aggressor_byte: int) -> str:
    """Classify stored data into one of the paper's canonical patterns.

    The victim/aggressor byte pair identifies Table 2's patterns; anything
    else is ``"other"`` (neutral condition factors apply).
    """
    for name, victim in PATTERN_VICTIM_BYTE.items():
        if victim_byte == victim and aggressor_byte == (victim ^ 0xFF):
            return name
    return OTHER_PATTERN


@dataclass(frozen=True)
class Condition:
    """One test condition: data pattern, aggressor on-time, temperature,
    and wordline voltage (the Sec. 6.5 process-corner extension)."""

    pattern: str = "checkered0"
    t_agg_on: float = REFERENCE_T_AGG_ON
    temperature: float = REFERENCE_TEMPERATURE
    wordline_voltage: float = REFERENCE_WORDLINE_VOLTAGE

    def __post_init__(self) -> None:
        if self.t_agg_on <= 0:
            raise ConfigurationError(f"t_agg_on must be positive, got {self.t_agg_on}")
        if not -40.0 <= self.temperature <= 125.0:
            raise ConfigurationError(
                f"temperature {self.temperature} C outside plausible range"
            )
        if not 1.0 <= self.wordline_voltage <= 3.5:
            raise ConfigurationError(
                f"wordline voltage {self.wordline_voltage} V outside the "
                "operable range"
            )

    def canonical(self) -> "Condition":
        """Quantize to the resolution the device physically distinguishes.

        On-time to 0.1 ns (command-clock resolution), temperature to 0.5 C
        (the paper's PID controller precision), voltage to 10 mV.
        """
        pattern = (
            self.pattern if self.pattern in PATTERN_VICTIM_BYTE else OTHER_PATTERN
        )
        return Condition(
            pattern=pattern,
            t_agg_on=round(self.t_agg_on, 1),
            temperature=round(self.temperature * 2.0) / 2.0,
            wordline_voltage=round(self.wordline_voltage * 100.0) / 100.0,
        )


@dataclass(frozen=True)
class VrdModelParams:
    """Per-module parameters of the VRD device model.

    The chip catalog (:mod:`repro.chips`) instantiates one of these per
    tested module, calibrated against the paper's Table 7 summary columns.
    """

    #: Geometric mean of base RDT across rows at the reference condition.
    mean_rdt: float = 10_000.0
    #: Lognormal sigma of base RDT across rows (spatial variation).
    spatial_sigma: float = 0.25
    #: Poisson mean of fast shallow traps per row.
    trap_count_mean: float = 3.0
    #: Exponential scale of shallow trap depths (before ``severity``).
    depth_scale: float = 0.008
    #: Probability that a row carries one slow deep trap.
    big_trap_prob: float = 0.06
    #: Scale of the deep trap's depth.
    big_trap_depth: float = 0.35
    #: Probability that a row carries a slow *shallow* trap whose rare
    #: occupancy defines the series minimum. This is what makes the minimum
    #: RDT appear only a handful of times in 1000 measurements (Finding 7:
    #: median P(find min | N=1) ~ 0.2%, and 22.4% of rows <= 0.1%).
    rare_trap_prob: float = 0.85
    #: Scale of the rare trap's depth (a few measurement-grid steps).
    rare_trap_depth: float = 0.03
    #: Log-uniform bounds of the rare trap's stationary occupancy.
    rare_pi_lo: float = 1.2e-3
    rare_pi_hi: float = 1.0e-2
    #: Lognormal sigma of the measurement residual (row-median value).
    sigma_resid: float = 0.006
    #: Technology-node severity multiplier on all trap depths; higher
    #: density / more advanced die revisions get larger values (Finding 11).
    severity: float = 1.0
    #: Pattern -> trap-depth multiplier (module-level; rows jitter around it).
    pattern_depth: Mapping[str, float] = field(
        default_factory=lambda: {
            "rowstripe0": 1.00,
            "rowstripe1": 1.05,
            "checkered0": 1.10,
            "checkered1": 0.95,
        }
    )
    #: Pattern -> base-RDT multiplier.
    pattern_rdt: Mapping[str, float] = field(
        default_factory=lambda: {
            "rowstripe0": 1.03,
            "rowstripe1": 1.00,
            "checkered0": 0.97,
            "checkered1": 1.00,
        }
    )
    #: RowPress response: rdt factor = g(t)/g(35ns), g(t)=1/(1+(t/tau)^alpha).
    taggon_rdt_tau_ns: float = 1_500.0
    taggon_rdt_alpha: float = 0.65
    #: Trap-depth multiplier slope per decade of tAggOn (sign varies by
    #: manufacturer; Finding 15).
    taggon_depth_slope: float = -0.04
    #: Quadratic term per squared decade of tAggOn; a positive value with a
    #: negative slope gives the non-monotonic response of Mfr. S chips.
    taggon_depth_quad: float = 0.0
    #: Fractional base-RDT change per Celsius above 50 C.
    temp_rdt_coeff: float = -0.002
    #: Fractional trap-depth change per Celsius above 50 C (Finding 16).
    temp_depth_coeff: float = 0.004
    #: Fractional base-RDT change per volt of wordline voltage *below*
    #: nominal: lowering VPP weakens the disturbance mechanism, raising
    #: the threshold (prior work: understanding RowHammer under reduced
    #: wordline voltage).
    voltage_rdt_coeff: float = 0.9
    #: Fractional trap-depth change per volt below nominal (trap-assisted
    #: injection weakens along with the field).
    voltage_depth_coeff: float = -0.5
    #: Coupling between spatial vulnerability and VRD severity: rows with a
    #: lower base RDT (physically: more defective) get proportionally
    #: deeper traps, multiplier = (mean_rdt / base_rdt) ** coupling. This
    #: makes the most vulnerable rows — the ones the paper's protocol
    #: selects — also the ones with the richest temporal variation.
    vulnerability_coupling: float = 0.5
    #: Weak cells tracked per row.
    weak_cells: int = 16
    #: Exponential scale of consecutive weak-cell margin gaps.
    cell_margin_scale: float = 0.035
    #: Lognormal sigma of per-trial jitter on non-weakest cells.
    cell_jitter_sigma: float = 0.02

    def __post_init__(self) -> None:
        if self.mean_rdt <= 0:
            raise ConfigurationError("mean_rdt must be positive")
        if not 0 <= self.big_trap_prob <= 1:
            raise ConfigurationError("big_trap_prob must be in [0, 1]")
        if self.weak_cells < 1:
            raise ConfigurationError("weak_cells must be >= 1")
        for name in ("spatial_sigma", "depth_scale", "sigma_resid", "severity"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

@dataclass(frozen=True)
class ConditionFactors:
    """Resolved multipliers for one (row, condition) pair."""

    rdt_factor: float
    depth_factor: float
    first_flip_margin: float


class _ConditionState:
    """Sequential latent state of one row under one condition."""

    __slots__ = ("occupancy", "latent_rdt", "rng", "measurement_index")

    def __init__(self, occupancy: List[bool], rng: np.random.Generator):
        self.occupancy = occupancy
        self.rng = rng
        self.latent_rdt: float = math.nan
        self.measurement_index: int = 0


class RowVrdProcess:
    """The VRD stochastic process of a single DRAM row.

    Construction consumes a dedicated RNG stream so a (module, bank, row)
    triple always produces the same physical row. Per-condition sequential
    state uses further derived streams.
    """

    def __init__(
        self,
        params: VrdModelParams,
        row_bits: int,
        seed: int,
        identity: Tuple[str, int, int],
        true_cell_lookup=None,
    ):
        if row_bits < params.weak_cells:
            raise ConfigurationError(
                f"row has {row_bits} bits but model needs {params.weak_cells} weak cells"
            )
        self.params = params
        self.row_bits = row_bits
        self.identity = identity
        self._seed = seed
        module_id, bank, row = identity
        rng = derive(seed, "vrd-row", module_id, bank, row)

        # Spatial variation: base RDT of this row.
        self.base_rdt = float(
            params.mean_rdt * np.exp(rng.normal(0.0, params.spatial_sigma))
        )
        # Vulnerable (low base RDT) rows carry proportionally deeper traps.
        coupling = float(
            np.clip(
                (params.mean_rdt / self.base_rdt)
                ** params.vulnerability_coupling,
                0.5,
                3.0,
            )
        )
        self.severity_multiplier = coupling

        # Shallow fast traps.
        self.traps: List[Trap] = []
        n_small = int(rng.poisson(params.trap_count_mean))
        for _ in range(n_small):
            depth = float(
                np.clip(
                    rng.exponential(
                        params.depth_scale * params.severity * coupling
                    ),
                    1e-4,
                    0.5,
                )
            )
            pi = float(rng.beta(2.0, 2.0))
            # Fast traps resample every measurement (dwell ~ one sweep):
            # successive measurements are independent, matching Finding 3
            # (most states last one measurement) and Finding 4 (no
            # temporal structure detectable even by portmanteau tests).
            self.traps.append(
                Trap(
                    depth=depth,
                    p_occupy=max(1e-6, pi),
                    p_release=max(1e-6, 1.0 - pi),
                )
            )

        # Slow shallow trap whose rare occupancy defines the series minimum.
        self.has_rare_trap = bool(rng.random() < params.rare_trap_prob)
        if self.has_rare_trap:
            depth = float(
                np.clip(
                    rng.uniform(0.85, 1.15) * params.rare_trap_depth * coupling,
                    5e-3,
                    0.3,
                )
            )
            pi = float(
                np.exp(rng.uniform(np.log(params.rare_pi_lo),
                                   np.log(params.rare_pi_hi)))
            )
            # Near-unit release probability keeps dip dwell at about one
            # measurement, so the minimum appears as isolated excursions.
            speed = float(rng.uniform(0.8, 1.0))
            self.traps.append(
                Trap(
                    depth=depth,
                    p_occupy=max(1e-7, speed * pi),
                    p_release=max(1e-7, speed * (1.0 - pi)),
                )
            )

        # Occasional slow deep trap: rare excursions to a much lower RDT.
        self.has_big_trap = bool(rng.random() < params.big_trap_prob)
        if self.has_big_trap:
            depth = float(
                np.clip(
                    rng.uniform(0.5, 1.0)
                    * params.big_trap_depth
                    * params.severity,
                    0.02,
                    0.8,
                )
            )
            pi = float(np.exp(rng.uniform(np.log(0.002), np.log(0.2))))
            speed = float(rng.uniform(0.2, 1.0))
            self.traps.append(
                Trap(
                    depth=depth,
                    p_occupy=max(1e-6, speed * pi),
                    p_release=max(1e-6, speed * (1.0 - pi)),
                )
            )

        # Residual measurement-to-measurement noise.
        self.sigma_resid = float(
            params.sigma_resid * coupling * np.exp(rng.normal(0.0, 0.4))
        )

        # Per-row condition responses, jittered around module-level values.
        # The wide per-row pattern jitter drives Fig. 7's max-over-config
        # CV well above the typical single-config CV.
        self._pattern_depth = {
            key: value * float(np.exp(rng.normal(0.0, 0.30)))
            for key, value in params.pattern_depth.items()
        }
        self._pattern_rdt = {
            key: value * float(np.exp(rng.normal(0.0, 0.02)))
            for key, value in params.pattern_rdt.items()
        }
        self._taggon_depth_slope = params.taggon_depth_slope + float(
            rng.normal(0.0, 0.01)
        )
        self._temp_depth_coeff = params.temp_depth_coeff * float(
            np.exp(rng.normal(0.0, 0.3))
        )

        # Weak cells: bit positions, increasing margins, polarity. Margin
        # gaps grow geometrically: a handful of cells sit within ~15% of
        # the weakest, but even deep threshold dips (big-trap excursions)
        # only reach a few more — matching the paper's observation of at
        # most ~5 unique flipping cells per row at a 10% safety margin.
        positions = rng.choice(row_bits, size=params.weak_cells, replace=False)
        self.weak_cell_bits = np.sort(positions.astype(np.int64))
        rng.shuffle(self.weak_cell_bits)  # margin order independent of position
        growth = 2.0 ** np.arange(params.weak_cells)
        gaps = rng.exponential(params.cell_margin_scale, params.weak_cells)
        gaps = gaps * growth
        gaps[0] = 0.0
        self.weak_cell_margins = np.cumsum(gaps)
        if true_cell_lookup is None:
            self.weak_cell_true = np.ones(params.weak_cells, dtype=bool)
        else:
            self.weak_cell_true = np.array(
                [true_cell_lookup(row, int(bit)) for bit in self.weak_cell_bits],
                dtype=bool,
            )
        self.uncharged_penalty = float(rng.uniform(0.03, 0.15))

        self._condition_states: Dict[Condition, _ConditionState] = {}

    # ------------------------------------------------------------------
    # Condition factors
    # ------------------------------------------------------------------

    def _taggon_rdt_factor(self, t_agg_on: float) -> float:
        """RowPress RDT factor, normalized to 1 at the reference on-time."""
        params = self.params

        def g(t: float) -> float:
            return 1.0 / (1.0 + (t / params.taggon_rdt_tau_ns) ** params.taggon_rdt_alpha)

        return g(t_agg_on) / g(REFERENCE_T_AGG_ON)

    def _charged_under_pattern(self, pattern: str) -> np.ndarray:
        """Which weak cells hold charge under a canonical pattern's victim data."""
        if pattern not in PATTERN_VICTIM_BYTE:
            return np.ones(len(self.weak_cell_bits), dtype=bool)
        byte = PATTERN_VICTIM_BYTE[pattern]
        bit_values = (byte >> (self.weak_cell_bits % 8)) & 1
        return (bit_values == 1) == self.weak_cell_true

    def _cell_margins_for(self, pattern: str) -> np.ndarray:
        """Per-weak-cell flip margins including the uncharged penalty."""
        charged = self._charged_under_pattern(pattern)
        return self.weak_cell_margins + np.where(charged, 0.0, self.uncharged_penalty)

    def factors(self, condition: Condition) -> ConditionFactors:
        """Resolve the condition multipliers for this row."""
        condition = condition.canonical()
        pattern = condition.pattern
        undervolt = REFERENCE_WORDLINE_VOLTAGE - condition.wordline_voltage
        rdt_factor = (
            self._pattern_rdt.get(pattern, 1.0)
            * self._taggon_rdt_factor(condition.t_agg_on)
            * max(0.05, 1.0 + self.params.temp_rdt_coeff
                  * (condition.temperature - REFERENCE_TEMPERATURE))
            * max(0.05, 1.0 + self.params.voltage_rdt_coeff * undervolt)
        )
        decades = math.log10(condition.t_agg_on / REFERENCE_T_AGG_ON)
        taggon_term = (
            1.0
            + self._taggon_depth_slope * decades
            + self.params.taggon_depth_quad * decades * decades
        )
        depth_factor = (
            self._pattern_depth.get(pattern, 1.0)
            * max(0.05, taggon_term)
            * max(0.05, 1.0 + self._temp_depth_coeff
                  * (condition.temperature - REFERENCE_TEMPERATURE))
            * max(0.05, 1.0 + self.params.voltage_depth_coeff * undervolt)
        )
        margins = self._cell_margins_for(pattern)
        return ConditionFactors(
            rdt_factor=float(rdt_factor),
            depth_factor=float(depth_factor),
            first_flip_margin=float(margins.min()),
        )

    # ------------------------------------------------------------------
    # Fast path: vectorized measurement series
    # ------------------------------------------------------------------

    def latent_blocks(
        self,
        condition: Condition,
        n: int,
        stream: str = "series",
    ):
        """:meth:`latent_series` in blocks: an iterator of ``(start,
        values)`` pairs, one per :data:`~repro.dram.traps.SERIES_BLOCK`
        measurements.

        Every trap's occupancy is drawn before this returns (bit-packed
        when the series spans several blocks);
        the residual normals are drawn block by block as the iterator is
        consumed, after all traps, so the stream order is that of one
        ``normal(0, sigma, n)`` draw.
        """
        check_series_length(n)
        condition = condition.canonical()
        factors = self.factors(condition)
        module_id, bank, row = self.identity
        rng = derive(
            self._seed, "vrd-series", module_id, bank, row,
            condition.pattern, str(condition.t_agg_on),
            str(condition.temperature), str(condition.wordline_voltage),
            stream,
        )
        occupancy = new_occupancy(len(self.traps), n)
        for trap, out in zip(self.traps, trap_outputs(occupancy)):
            sample_occupancy(trap, n, rng, out)
        log_terms = log_depth_terms(
            np.array([trap.depth for trap in self.traps]), factors.depth_factor
        )
        level = self.base_rdt * factors.rdt_factor * (1.0 + factors.first_flip_margin)
        return latent_blocks(occupancy, n, log_terms, level, self.sigma_resid, rng)

    def latent_series(
        self,
        condition: Condition,
        n: int,
        stream: str = "series",
    ) -> np.ndarray:
        """Latent first-flip thresholds for ``n`` successive measurements.

        One entry corresponds to one RDT measurement of Algorithm 1; the
        measurement layer quantizes these onto its hammer-count grid.
        """
        blocks = self.latent_blocks(condition, n, stream)
        out = np.empty(n)
        for start, values in blocks:
            out[start:start + values.size] = values
        return out

    # ------------------------------------------------------------------
    # Sequential path: bit-level trials
    # ------------------------------------------------------------------

    def _state(self, condition: Condition) -> _ConditionState:
        condition = condition.canonical()
        state = self._condition_states.get(condition)
        if state is None:
            module_id, bank, row = self.identity
            rng = derive(
                self._seed, "vrd-seq", module_id, bank, row,
                condition.pattern, str(condition.t_agg_on),
                str(condition.temperature), str(condition.wordline_voltage),
            )
            occupancy = [trap.sample_initial(rng) for trap in self.traps]
            state = _ConditionState(occupancy, rng)
            self._refresh_latent(condition, state)
            self._condition_states[condition] = state
        return state

    def _refresh_latent(self, condition: Condition, state: _ConditionState) -> None:
        factors = self.factors(condition)
        log_mult = 0.0
        for trap, occupied in zip(self.traps, state.occupancy):
            if occupied:
                log_mult += math.log1p(-min(trap.depth * factors.depth_factor, 0.95))
        noise = math.exp(state.rng.normal(0.0, self.sigma_resid))
        state.latent_rdt = (
            self.base_rdt * factors.rdt_factor * math.exp(log_mult) * noise
        )

    def begin_measurement(self, condition: Condition) -> None:
        """Advance the latent chain one measurement step (the fault clock)."""
        condition = condition.canonical()
        state = self._state(condition)
        state.occupancy = [
            trap.step(occupied, state.rng)
            for trap, occupied in zip(self.traps, state.occupancy)
        ]
        self._refresh_latent(condition, state)
        state.measurement_index += 1

    def current_threshold(self, condition: Condition) -> float:
        """The hammer count at which the current measurement first flips."""
        condition = condition.canonical()
        state = self._state(condition)
        factors = self.factors(condition)
        return state.latent_rdt * (1.0 + factors.first_flip_margin)

    def _trap_constants(
        self, factors: ConditionFactors
    ) -> Tuple[List[float], List[float], List[float]]:
        """Per-trap ``(p_occupy, p_release, log_term)`` lists for the
        batched sequential walks.

        ``log_term`` is a pure function of (depth, factors); the scalar
        :meth:`_refresh_latent` recomputes it every measurement with these
        exact operations, so hoisting it keeps every float identical.
        """
        traps = self.traps
        return (
            [trap.p_occupy for trap in traps],
            [trap.p_release for trap in traps],
            [
                math.log1p(-min(trap.depth * factors.depth_factor, 0.95))
                for trap in traps
            ],
        )

    def threshold_series(
        self, condition: Condition, exposures: np.ndarray
    ) -> np.ndarray:
        """Thresholds of successive measurements until one is exceeded.

        Window ``k`` advances the sequential chain one step and compares
        ``exposures[k]`` with the new threshold; the walk stops after the
        first window with ``exposure >= threshold``. Returns that prefix of
        thresholds (all of them when no window is exceeded).

        State- and stream-identical to the same number of
        ``begin_measurement(condition)`` + ``current_threshold(condition)``
        pairs: one uniform per trap (``rng.random(n_traps)`` draws them
        element-sequentially, in ``Trap.step`` order), then the residual
        normal, then the reference's scalar ``math`` recurrence. What the
        walk saves is the per-window overhead — condition factors,
        canonicalization, per-trap method calls — not the draws.
        """
        condition = condition.canonical()
        state = self._state(condition)
        factors = self.factors(condition)
        p_occupy, p_release, log_terms = self._trap_constants(factors)
        n_traps = len(log_terms)
        base = self.base_rdt * factors.rdt_factor
        margin_plus1 = 1.0 + factors.first_flip_margin
        sigma_resid = self.sigma_resid
        random, normal = state.rng.random, state.rng.normal
        occupancy = list(state.occupancy)
        latent = state.latent_rdt
        thresholds: List[float] = []
        for exposure in np.asarray(exposures, dtype=float).tolist():
            u = random(n_traps).tolist()
            log_mult = 0.0
            for index in range(n_traps):
                occupied = occupancy[index]
                if u[index] < (
                    p_release[index] if occupied else p_occupy[index]
                ):
                    occupied = not occupied
                    occupancy[index] = occupied
                if occupied:
                    log_mult += log_terms[index]
            noise = math.exp(normal(0.0, sigma_resid))
            latent = base * math.exp(log_mult) * noise
            threshold = latent * margin_plus1
            thresholds.append(threshold)
            if exposure >= threshold:
                break
        if thresholds:
            state.occupancy = occupancy
            state.latent_rdt = latent
            state.measurement_index += len(thresholds)
        return np.array(thresholds)

    def trial_flips(
        self,
        condition: Condition,
        effective_hammers: float,
        already_flipped: Optional[set] = None,
    ) -> List[int]:
        """Bit positions that flip in one trial at the given hammer count.

        ``already_flipped`` cells are excluded (a cell flips once per write
        cycle). The weakest cell flips deterministically at the latent
        threshold; stronger cells carry per-trial jitter, so overdrive trials
        flip varying supersets (this produces Fig. 16's unique-flip spread).
        """
        if effective_hammers < 0:
            raise ConfigurationError("effective hammer count must be >= 0")
        condition = condition.canonical()
        state = self._state(condition)
        margins = self._cell_margins_for(condition.pattern)
        weakest = int(np.argmin(margins))
        flips: List[int] = []
        for index, (bit, margin) in enumerate(
            zip(self.weak_cell_bits, margins)
        ):
            bit = int(bit)
            if already_flipped is not None and bit in already_flipped:
                continue
            threshold = state.latent_rdt * (1.0 + margin)
            if index != weakest:
                jitter = math.exp(
                    abs(state.rng.normal(0.0, self.params.cell_jitter_sigma))
                )
                threshold *= jitter
            if effective_hammers >= threshold:
                flips.append(bit)
        return flips

    def trial_flip_series(
        self,
        condition: Condition,
        effective_hammers: float,
        n: int,
    ) -> np.ndarray:
        """Flip outcomes of ``n`` successive measurement+trial rounds.

        State- and stream-identical to ``n`` iterations of the scalar pair
        ``begin_measurement(condition)`` + ``trial_flips(condition,
        effective_hammers)`` — same RNG consumption, same final occupancy
        and latent state — returning an ``(n, weak_cells)`` boolean matrix
        whose columns follow ``weak_cell_bits`` order. There is no
        ``already_flipped`` exclusion: callers rewrite the row between
        trials, as :func:`repro.core.guardband.margin_bitflip_experiment`
        does.

        The only per-trial Python is the RNG draws: one uniform per trap
        (``Trap.step`` order), then the residual normal, then one jitter
        normal per non-weakest cell, drawn trial by trial because the two
        samplers interleave. Everything else is resolved over all ``n``
        trials at once, without reordering a single float operation:

        * A trap's next state is ``u < p_occupy`` when that equals
          ``u >= p_release`` (the old state does not matter), the old
          state toggled when ``u < p_occupy`` but ``u < p_release``, and
          the old state otherwise. Each trial's occupancy is therefore the
          value set at the last setting trial (or the initial occupancy),
          XOR the parity of the toggles since.
        * ``log_mult`` accumulates trap by trap with a masked ``np.add``,
          the scalar ``+=`` sequence; a sum across traps would reorder it.
        * Exponentials go through ``math.exp`` (``np.exp`` may differ in
          the last ULP), and cell jitters are only exponentiated for
          candidate cells: ``exp(abs(z)) >= 1``, so a cell with
          ``effective_hammers`` below its unjittered threshold can never
          flip.
        """
        if effective_hammers < 0:
            raise ConfigurationError("effective hammer count must be >= 0")
        condition = condition.canonical()
        state = self._state(condition)
        factors = self.factors(condition)
        margins = self._cell_margins_for(condition.pattern)
        weakest = int(np.argmin(margins))
        n_cells = len(margins)
        flips = np.zeros((n, n_cells), dtype=bool)
        if n == 0:
            return flips
        p_occupy, p_release, log_terms = self._trap_constants(factors)
        n_traps = len(log_terms)
        u = np.empty((n, n_traps))
        z = np.empty((n, n_cells))
        random, standard_normal = state.rng.random, state.rng.standard_normal
        for u_trial, z_trial in zip(u, z):
            random(out=u_trial)
            standard_normal(out=z_trial)

        trial_numbers = np.arange(1, n + 1)
        value_at = np.empty(n + 1, dtype=bool)
        toggles_through = np.zeros(n + 1, dtype=np.int64)
        log_mult = np.zeros(n)
        occupancy = []
        for index in range(n_traps):
            column = u[:, index]
            value_at[0] = state.occupancy[index]
            occupy = value_at[1:]
            np.less(column, p_occupy[index], out=occupy)
            keep = column >= p_release[index]
            last_set = np.maximum.accumulate(
                np.where(occupy == keep, trial_numbers, 0)
            )
            np.cumsum(occupy & ~keep, out=toggles_through[1:])
            occupied = value_at[last_set] ^ (
                (toggles_through[1:] - toggles_through[last_set]) & 1
            ).astype(bool)
            np.add(log_mult, log_terms[index], out=log_mult, where=occupied)
            occupancy.append(bool(occupied[-1]))

        base = self.base_rdt * factors.rdt_factor
        noise = _math_exp(self.sigma_resid * z[:, 0])
        latent = (base * _math_exp(log_mult)) * noise
        thresholds = latent[:, None] * (1.0 + margins)
        candidates = effective_hammers >= thresholds
        flips[:, weakest] = candidates[:, weakest]
        candidates[:, weakest] = False
        trials, cells = np.nonzero(candidates)
        # Jitter normals follow the residual one, skipping the weakest cell.
        slots = 1 + cells - (cells > weakest)
        jitter = _math_exp(
            np.abs(self.params.cell_jitter_sigma * z[trials, slots])
        )
        flips[trials, cells] = (
            effective_hammers >= thresholds[trials, cells] * jitter
        )

        state.occupancy = occupancy
        state.latent_rdt = float(latent[-1])
        state.measurement_index += n
        return flips


def _math_exp(values: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element: ``np.exp`` may differ in the last ULP
    from the scalar recurrences that batched walks must reproduce."""
    return np.fromiter(map(math.exp, values.tolist()), float, values.size)


def effective_hammers(left_acts: float, right_acts: float) -> float:
    """Combine per-aggressor activation counts into one disturbance drive.

    Double-sided hammering with balanced counts is the paper's access
    pattern; a single-sided aggressor is roughly 4x weaker, matching prior
    characterization. ``min + 0.25 * imbalance`` interpolates between the
    two regimes.
    """
    if left_acts < 0 or right_acts < 0:
        raise ConfigurationError("activation counts must be >= 0")
    low = min(left_acts, right_acts)
    high = max(left_acts, right_acts)
    return low + 0.25 * (high - low)


class ModuleFaultModel:
    """Fault-model facade for one simulated module.

    Owns the lazy per-row :class:`RowVrdProcess` map and exposes the two
    consumption paths documented above.
    """

    def __init__(
        self,
        params: VrdModelParams,
        row_bits: int,
        seed: int,
        module_id: str,
        true_cell_lookup=None,
    ):
        self.params = params
        self.row_bits = row_bits
        self.seed = seed
        self.module_id = module_id
        self._true_cell_lookup = true_cell_lookup
        self._processes: Dict[Tuple[int, int], RowVrdProcess] = {}
        # Per-bank packed fast state (repro.dram.fastfaults), one entry per
        # bank keyed by the exact rows tuple it was built for: campaigns
        # iterate configs over a fixed row set, so the single entry hits
        # across the whole config-major loop while staying bounded.
        self._bank_states: Dict[int, Tuple[Tuple[int, ...], object]] = {}

    def process(self, bank: int, row: int) -> RowVrdProcess:
        """The (lazily created) VRD process of one row."""
        key = (bank, row)
        existing = self._processes.get(key)
        if existing is None:
            existing = RowVrdProcess(
                self.params,
                self.row_bits,
                self._seed_for_rows(),
                (self.module_id, bank, row),
                true_cell_lookup=self._true_cell_lookup,
            )
            self._processes[key] = existing
            obs.active().counter_add("faults.process.build")
        return existing

    def _seed_for_rows(self) -> int:
        return self.seed

    def probe_guess_means(
        self,
        bank: int,
        rows: "list[int]",
        condition: Condition,
        repeats: int = 10,
    ) -> np.ndarray:
        """Guess-stream means (the ``guess_rdt`` quantity) of many physical
        rows: entry ``k`` equals ``process(bank, rows[k]).latent_series(
        condition, repeats, stream="guess").mean()`` bit for bit.

        Served by the packed state of :meth:`bank_state` when the bank's
        cached state holds exactly these rows, and by a throwaway one
        otherwise: row selection probes thousands of rows per module, and
        caching them would both hold dead state and evict the campaign's
        measured rows.
        """
        obs.active().counter_add("faults.probe_rows", len(rows))
        return self._packed_state(bank, rows, cache=False).guess_means(
            condition, repeats
        )

    def bank_state(self, bank: int, rows: "list[int]"):
        """Packed array-backed state for ``rows`` of one bank.

        Bulk-series fast path (see :class:`repro.dram.fastfaults
        .BankVrdState`); bit-identical to per-row :meth:`process` queries.
        One state per bank is cached, keyed by the exact rows tuple.
        """
        return self._packed_state(bank, rows, cache=True)

    def _packed_state(self, bank: int, rows: "list[int]", cache: bool):
        from repro.dram.fastfaults import BankVrdState

        rows = tuple(int(row) for row in rows)
        cached = self._bank_states.get(bank)
        if cached is not None and cached[0] == rows:
            obs.active().counter_add("faults.bank_state.reuse")
            return cached[1]
        obs.active().counter_add("faults.bank_state.build")
        state = BankVrdState(
            self.params,
            self.row_bits,
            self._seed_for_rows(),
            self.module_id,
            bank,
            rows,
            true_cell_lookup=self._true_cell_lookup,
        )
        if cache:
            self._bank_states[bank] = (rows, state)
        return state

    def latent_series_bank(
        self,
        bank: int,
        rows: "list[int]",
        condition: Condition,
        n: int,
        stream: str = "series",
    ) -> np.ndarray:
        """Latent series of many rows at once, as an ``(len(rows), n)``
        matrix; row ``k`` equals ``process(bank, rows[k]).latent_series(...)``
        bit for bit."""
        return self.bank_state(bank, rows).latent_series_bulk(
            condition, n, stream=stream
        )

    def begin_measurement(self, bank: int, row: int, condition: Condition) -> None:
        """Tick the fault clock of one row (start of an RDT measurement)."""
        self.process(bank, row).begin_measurement(condition)

    def trial_flips(
        self,
        bank: int,
        row: int,
        condition: Condition,
        left_acts: float,
        right_acts: float,
        already_flipped: Optional[set] = None,
    ) -> List[int]:
        """Flipped bit positions for one hammer trial against one victim."""
        drive = effective_hammers(left_acts, right_acts)
        if drive <= 0:
            return []
        return self.process(bank, row).trial_flips(
            condition, drive, already_flipped=already_flipped
        )
