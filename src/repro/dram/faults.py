"""The variable-read-disturbance (VRD) fault model.

This module is the device-level substitution for the paper's real DRAM chips
(DESIGN.md Sec. 1). Each row owns:

* a **base RDT** (spatial variation across rows, lognormal);
* a set of fast, shallow charge traps (:mod:`repro.dram.traps`) plus an
  occasional slow, deep trap — the paper's hypothesized trap-assisted
  mechanism (Sec. 4.2). Occupied traps lower the instantaneous RDT;
* a small lognormal residual;
* an ordered list of **weak cells** with increasing flip margins, which
  determines *which bits* flip and how many flip under overdrive.

Test conditions (data pattern, aggressor-row on-time, temperature) scale the
base RDT and the trap depths through per-row response factors, reproducing
the paper's Findings 12-16 (condition-dependent VRD profiles).

One constructor draws every row's parameters and one routine resolves its
condition factors, both on :class:`~repro.dram.fastfaults.BankVrdState`;
a :class:`RowVrdProcess` is built from a one-row state. Two consumption
paths share this model:

* the **bit-level path**: the simulated bank asks for flips given
  accumulated aggressor activations and the stored data (used by the DRAM
  Bender interpreter — the faithful Algorithm 1 route), stepping the
  row's sequential chain;
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
from repro.dram.cells import CellLayout
from repro.errors import ConfigurationError
from repro.rng import derive, step_draws

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

    The packed series re-derives ``rng.geometric(p)`` from numpy's private
    algorithm (see :func:`repro.dram.fastfaults._short_column`): one
    uniform and the search recurrence for ``p >= 1/3``, one ziggurat
    standard exponential and ``ceil(-e / log1p(-p))`` below it. So we
    verify once that the mirror samples what ``sample_occupancy_series``
    samples (the same column, the same generator state after) for traps
    on both branches, at the boundary and with one probability on each;
    on any mismatch (e.g. a future numpy changes the sampler) the fast
    path silently falls back to calling ``rng.geometric`` for every trap
    — slower, but still bit-identical to the reference path.
    """
    from repro.dram.fastfaults import _short_column, _TrapPlan
    from repro.dram.traps import Trap, sample_occupancy_series

    cases = [(0.7, 0.7), (0.34, 0.34), (_GEOM_SEARCH_P,) * 2, (0.97, 0.97),
             (0.05, 0.05), (0.6, 0.02)]
    for seed, probs in enumerate(cases):
        ref_rng = Generator(PCG64(seed))
        mirror_rng = Generator(PCG64(seed))
        reference = sample_occupancy_series(Trap(0.1, *probs), 200, ref_rng)
        if _short_column(_TrapPlan(0.1, *probs), 200, mirror_rng) != reference.tolist():
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
    """Sequential latent state of one row under one condition, with the
    row's factors, per-weak-cell flip margins (``weak_cell_bits`` order)
    and per-trap ``log(1 - effective depth)`` terms (by ``math.log1p``)
    under that condition."""

    __slots__ = (
        "occupancy", "rng", "factors", "margins", "log_terms",
        "latent_rdt", "measurement_index",
    )

    def __init__(self, occupancy, rng, factors, margins, log_terms):
        self.occupancy: List[bool] = occupancy
        self.rng: np.random.Generator = rng
        self.factors: ConditionFactors = factors
        self.margins: np.ndarray = margins
        self.log_terms: List[float] = log_terms
        self.latent_rdt: float = math.nan
        self.measurement_index: int = 0


class RowVrdProcess:
    """The VRD stochastic process of a single DRAM row.

    Its parameters (base RDT, trap plans, residual sigma, weak cells and
    condition responses) come from a one-row
    :class:`~repro.dram.fastfaults.BankVrdState`, the one constructor of
    the device model, so a (module, bank, row) triple always produces the
    same physical row. This object adds the sequential chain: per-condition
    latent state on further derived streams, carried over between callers.
    """

    def __init__(self, state):
        self._bank = state
        self.params = state.params
        self.identity = (state.module_id, state.bank, state.rows[0])
        self.base_rdt = float(state.base_rdt[0])
        self.sigma_resid = float(state.sigma_resid[0])
        self.weak_cell_bits = state.weak_cell_bits[0]
        #: The row's trap plans (:class:`~repro.dram.fastfaults._TrapPlan`).
        self.traps = state._row_plans[0]
        self._condition_states: Dict[Condition, _ConditionState] = {}

    def factors(self, condition: Condition) -> ConditionFactors:
        """The condition multipliers of this row."""
        rdt, depth, _, first_flip, _ = self._bank._factors(condition.canonical())
        return ConditionFactors(float(rdt[0]), float(depth[0]), float(first_flip[0]))

    # ------------------------------------------------------------------
    # Fast path: vectorized measurement series
    # ------------------------------------------------------------------

    def latent_blocks(self, condition: Condition, n: int, stream: str = "series"):
        """:meth:`latent_series` in blocks: an iterator of ``(start,
        values)`` pairs, one per :data:`~repro.dram.traps.SERIES_BLOCK`
        measurements (see :meth:`~repro.dram.fastfaults.BankVrdState
        .latent_blocks`)."""
        return self._bank.latent_blocks(self.identity[2], condition, n, stream)

    def latent_series(
        self, condition: Condition, n: int, stream: str = "series"
    ) -> np.ndarray:
        """Latent first-flip thresholds for ``n`` successive measurements.

        One entry corresponds to one RDT measurement of Algorithm 1; the
        measurement layer quantizes these onto its hammer-count grid.
        """
        return self._bank.latent_series_bulk(condition, n, stream)[0]

    # ------------------------------------------------------------------
    # Sequential path: bit-level trials
    # ------------------------------------------------------------------

    def _state(self, condition: Condition) -> _ConditionState:
        condition = condition.canonical()
        state = self._condition_states.get(condition)
        if state is None:
            module_id, bank, row = self.identity
            rng = derive(
                self._bank.seed, "vrd-seq", module_id, bank, row,
                condition.pattern, str(condition.t_agg_on),
                str(condition.temperature), str(condition.wordline_voltage),
            )
            occupancy = [bool(rng.random() < trap.stationary) for trap in self.traps]
            factors = self.factors(condition)
            log_terms = [
                math.log1p(-min(trap.depth * factors.depth_factor, 0.95))
                for trap in self.traps
            ]
            margins = self._bank._factors(condition)[2][0]
            state = _ConditionState(occupancy, rng, factors, margins, log_terms)
            self._refresh_latent(state)
            self._condition_states[condition] = state
        return state

    def _refresh_latent(self, state: _ConditionState) -> None:
        log_mult = 0.0
        for term, occupied in zip(state.log_terms, state.occupancy):
            if occupied:
                log_mult += term
        noise = math.exp(state.rng.normal(0.0, self.sigma_resid))
        state.latent_rdt = (
            self.base_rdt * state.factors.rdt_factor * math.exp(log_mult) * noise
        )

    def begin_measurement(self, condition: Condition) -> None:
        """Advance the latent chain one measurement step (the fault clock):
        each trap leaves its state with probability ``p_release`` when
        occupied and ``p_occupy`` when not, one uniform per trap."""
        state = self._state(condition)
        rng = state.rng
        state.occupancy = [
            occupied != (rng.random() < (trap.p_release if occupied else trap.p_occupy))
            for trap, occupied in zip(self.traps, state.occupancy)
        ]
        self._refresh_latent(state)
        state.measurement_index += 1

    def current_threshold(self, condition: Condition) -> float:
        """The hammer count at which the current measurement first flips."""
        state = self._state(condition)
        return state.latent_rdt * (1.0 + state.factors.first_flip_margin)

    def _chain_latents(
        self,
        state: _ConditionState,
        uniforms: np.ndarray,
        residuals: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Latent RDT and trap occupancy after each of ``n`` chain steps,
        from the steps' ``(n, traps)`` uniforms and ``(n,)`` residual
        standard normals, without reordering a float operation of the
        scalar ``begin_measurement`` step:

        * A trap's next state is ``u < p_occupy`` when that equals
          ``u >= p_release`` (the old state does not matter), the old
          state toggled when ``u < p_occupy`` but ``u < p_release``, and
          the old state otherwise. Each step's occupancy is therefore the
          value set at the last setting step (or the initial occupancy),
          XOR the parity of the toggles since.
        * ``log_mult`` adds trap by trap, left to right from 0.0
          (``np.add.accumulate`` along the trap axis), the scalar ``+=``
          sequence; a pairwise sum across traps would reorder it. An
          unoccupied trap adds a signed zero, which changes no sum.
        * The residual is ``normal(0, sigma)``, i.e. ``0.0 + sigma * z``,
          and exponentials go through ``math.exp`` (``np.exp`` may differ
          in the last ULP).
        """
        p_occupy = np.array([trap.p_occupy for trap in self.traps])
        p_release = np.array([trap.p_release for trap in self.traps])
        log_terms = np.array(state.log_terms)
        n, traps = uniforms.shape
        occupy = uniforms < p_occupy
        keep = uniforms >= p_release
        # Flat index, into the (n + 1, traps) tables below, of each
        # trap's last setting step (row 0: the initial occupancy).
        rows = np.arange(1, n + 1)[:, None] * traps
        last_set = np.multiply(occupy == keep, rows)
        last_set += np.arange(traps)
        np.maximum.accumulate(last_set, axis=0, out=last_set)
        value_at = np.empty((n + 1, traps), dtype=bool)
        value_at[0] = state.occupancy
        value_at[1:] = occupy
        # Toggles (``u < p_occupy`` but ``u < p_release``) through each
        # step, mod 2.
        parity = np.empty((n + 1, traps), dtype=bool)
        parity[0] = False
        np.logical_xor.accumulate(occupy > keep, axis=0, out=parity[1:])
        occupancy = value_at.ravel().take(last_set)
        occupancy ^= parity.ravel().take(last_set)
        occupancy ^= parity[1:]
        log_mult = np.zeros((n, traps + 1))
        np.multiply(occupancy, log_terms, out=log_mult[:, 1:])
        log_mult = np.add.accumulate(log_mult, axis=1)[:, -1]
        noise = _math_exp(0.0 + self.sigma_resid * residuals)
        base = self.base_rdt * state.factors.rdt_factor
        return (base * _math_exp(log_mult)) * noise, occupancy

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
        pairs. Every window's draws (one uniform per trap, as
        :meth:`begin_measurement` draws them, then the residual normal)
        come from one :func:`repro.rng.step_draws` block, the chain is
        resolved over all windows at once (:meth:`_chain_latents`), and
        the generator is rewound to just after the first exceeded window.
        """
        state = self._state(condition)
        exposures = np.asarray(exposures, dtype=float)
        n = exposures.size
        if n == 0:
            return np.empty(0)
        draws = step_draws(state.rng, n, len(self.traps), 1)
        latent, occupancy = self._chain_latents(
            state, draws.uniforms, draws.normals[:, 0]
        )
        thresholds = latent * (1.0 + state.factors.first_flip_margin)
        exceeded = np.flatnonzero(exposures >= thresholds)
        stop = int(exceeded[0]) + 1 if exceeded.size else n
        draws.rewind(stop)
        state.occupancy = occupancy[stop - 1].tolist()
        state.latent_rdt = float(latent[stop - 1])
        state.measurement_index += stop
        return thresholds[:stop]

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
        state = self._state(condition)
        margins = state.margins
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

        A trial draws one uniform per trap (as :meth:`begin_measurement`
        does), then the residual normal, then one jitter normal per
        non-weakest cell; all ``n`` trials' draws come from one
        :func:`repro.rng.step_draws` block. The chain is resolved over all trials at once
        (:meth:`_chain_latents`), and cell jitters are only exponentiated
        (``math.exp``) for candidate cells: ``exp(abs(z)) >= 1``, so a
        cell with ``effective_hammers`` below its unjittered threshold can
        never flip.
        """
        if effective_hammers < 0:
            raise ConfigurationError("effective hammer count must be >= 0")
        state = self._state(condition)
        margins = state.margins
        weakest = int(np.argmin(margins))
        n_cells = len(margins)
        flips = np.zeros((n, n_cells), dtype=bool)
        if n == 0:
            return flips
        draws = step_draws(state.rng, n, len(self.traps), n_cells)
        z = draws.normals
        latent, occupancy = self._chain_latents(state, draws.uniforms, z[:, 0])
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

        state.occupancy = occupancy[-1].tolist()
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
        cell_layout: Optional[CellLayout] = None,
    ):
        self.params = params
        self.row_bits = row_bits
        self.seed = seed
        self.module_id = module_id
        #: Cell polarities of the module's weak cells; ``None`` means all
        #: cells are true cells.
        self.cell_layout = cell_layout
        self._processes: Dict[Tuple[int, int], RowVrdProcess] = {}
        # Per-bank packed fast state (repro.dram.fastfaults), one entry per
        # bank keyed by the exact rows tuple it was built for: campaigns
        # iterate configs over a fixed row set, so the single entry hits
        # across the whole config-major loop while staying bounded.
        self._bank_states: Dict[int, Tuple[Tuple[int, ...], object]] = {}

    def process(self, bank: int, row: int) -> RowVrdProcess:
        """The (lazily created) VRD process of one row, built from a
        one-row packed state."""
        key = (bank, row)
        existing = self._processes.get(key)
        if existing is None:
            existing = RowVrdProcess(self._new_state(bank, (row,)))
            self._processes[key] = existing
            obs.active().counter_add("faults.process.build")
        return existing

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

    def _new_state(self, bank: int, rows: Tuple[int, ...]):
        from repro.dram.fastfaults import BankVrdState

        return BankVrdState(
            self.params, self.row_bits, self.seed, self.module_id, bank, rows,
            cell_layout=self.cell_layout,
        )

    def _packed_state(self, bank: int, rows: "list[int]", cache: bool):
        rows = tuple(int(row) for row in rows)
        cached = self._bank_states.get(bank)
        if cached is not None and cached[0] == rows:
            obs.active().counter_add("faults.bank_state.reuse")
            return cached[1]
        obs.active().counter_add("faults.bank_state.build")
        state = self._new_state(bank, rows)
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
