"""Unified fast-path/oracle differential harness.

Every fast path in this codebase carries the same promise: *bit-identical*
results to a scalar oracle. Each subsystem already asserts its own pair in
its own test file; this harness gives all of them one uniform shape — one
seed builds one workload, the workload runs down both paths, and each
outcome is reduced to a plain hashable fingerprint — so a single
parametrized test sweeps every pair over randomized seeds, and a tracing
on/off run of the same case proves instrumentation never perturbs results.

The pairs covered:

==================  ==================================  =========================
name                oracle                              fast path
==================  ==================================  =========================
engine              uncached ``module_campaign``        ``CampaignCache`` hit, same recipe
campaign            per-row selection + campaign loops  bank-batched selection/run
memsim              ``reference_memsim_run``            ``MemorySystem.run``
fastfaults          per-row ``ReferenceRow``            packed ``BankVrdState``
long-series         ``ReferenceRow.latent_series``      block-wise ``latent_series``
probe               ``ReferenceRow`` guess streams      batched ``guess_rdt_batch``
bender              ``interpreted_trial``               ``DramBender.run_trial``
ecc                 ``reference_monte_carlo``           ``monte_carlo_outcomes``
store               in-memory result payloads           sqlite ``ResultStore`` round trip
attack              per-window ``begin_measurement``    ``threshold_series`` walk
guardband           per-trial ``trial_flips``           ``trial_flip_series`` kernel
victim              per-row scan + ``find_victim``      memoized batched scan
==================  ==================================  =========================

Cross-protocol variants rerun the fastfaults and bender pairs on catalog
devices whose geometry exercises DDR5 bank groups (``D0``) and HBM2
pseudo channels (``Chip0``). The ``checker-bender`` pair holds
``compile_trial``'s timing certificate to the full rule table's verdict
on the stream :func:`recording` reads off interpreted trials (random
catalog devices and trials, some with tFAW or tRRD_L stretched past what
the trial meets); ``checker-memsim`` runs the memory-system loop with
``SystemConfig.check_timing`` on versus off, proving its opt-in timing
check never perturbs a single bit.

Two oracles here are statistical rather than bit-identical: the paper's
Monte Carlo minimum-RDT procedure (``probability_of_min_monte_carlo``,
``expected_normalized_min_monte_carlo``), which ``tests/core/
test_montecarlo.py`` holds the closed forms of
:mod:`repro.core.montecarlo` to, and the scalar per-window exposure draw
(``exposure_per_window``) behind the ``attack`` pair.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import astuple, dataclass, replace
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable, List

import numpy as np

from repro.dram.cells import CellLayoutKind
from repro.dram.faults import (
    PATTERN_VICTIM_BYTE,
    REFERENCE_T_AGG_ON,
    REFERENCE_TEMPERATURE,
    REFERENCE_WORDLINE_VOLTAGE,
    ConditionFactors,
)
from repro.dram.traps import Trap
from repro.errors import ConfigurationError
from repro.rng import derive

#: Deterministically randomized seeds: drawn from a fixed-seed PRNG so runs
#: are reproducible while still exercising arbitrary workload shapes.
SEEDS: List[int] = random.Random(0x56524431).sample(range(1, 100_000), 3)


@dataclass(frozen=True)
class DifferentialCase:
    """One fast-path/oracle pair under the unified harness."""

    name: str
    oracle: Callable[[int], object]
    fast: Callable[[int], object]


# ----------------------------------------------------------------------
# engine: uncached module_campaign vs a CampaignCache hit
# ----------------------------------------------------------------------

#: A small ``module_campaign`` recipe: selection over 48-row blocks, one
#: row per block, one configuration.
_ENGINE_CAMPAIGN = dict(
    rows_per_block=1, n_measurements=25, select_block_rows=48,
)


def _engine_campaign(seed: int, cache):
    from repro.analysis.figures import module_campaign
    from repro.core import CHECKERED0

    return module_campaign(
        "M1", patterns=(CHECKERED0,), seed=seed, cache=cache,
        **_ENGINE_CAMPAIGN,
    )


def engine_oracle(seed: int) -> tuple:
    return _campaign_fingerprint(_engine_campaign(seed, cache=None))


def engine_fast(seed: int) -> tuple:
    """The same recipe computed into a fresh store, then served from it:
    the hit is keyed before row selection and skips all of it."""
    import tempfile

    from repro.core.engine import CampaignCache

    class CountingCache(CampaignCache):
        hits = 0

        def load(self, key):
            result = super().load(key)
            self.hits += result is not None
            return result

    with tempfile.TemporaryDirectory() as tmp:
        cache = CountingCache(tmp)
        _engine_campaign(seed, cache)
        fingerprint = _campaign_fingerprint(_engine_campaign(seed, cache))
        assert cache.hits == 1
        cache.result_store.close()
    return fingerprint


def _campaign_fingerprint(result) -> tuple:
    return tuple(
        (
            observation.bank,
            observation.row,
            observation.config.label(),
            tuple(observation.series.values.tolist()),
            observation.series.grid_step,
        )
        for observation in result.observations
    )


# ----------------------------------------------------------------------
# campaign: per-row selection and measurement loops vs the bank batches
# ----------------------------------------------------------------------

#: Bank 0 carries the duplicate-pair case; bank 1 rows interleave with it,
#: so the pairs exercise per-bank queues handed back in pair order.
_CAMPAIGN_PAIRS = [(0, 10), (1, 7), (0, 20), (0, 20), (1, 33), (0, 30)]
_CAMPAIGN_N = 30
_SELECTION_BLOCK = 48
_SELECTION_PER_BLOCK = 6


def reference_selection(
    module, config, block_rows: int, per_block: int, probe_repeats: int = 10
) -> list:
    """The row-selection protocol on bank 0 with one ``guess_rdt`` per
    probed row."""
    from repro.core import FastRdtMeter

    n_rows = module.geometry.n_rows
    meter = FastRdtMeter(module, bank=0)
    middle_start = max(0, n_rows // 2 - block_rows // 2)
    blocks = (
        range(0, block_rows),
        range(middle_start, middle_start + block_rows),
        range(n_rows - block_rows, n_rows),
    )
    selected: list = []
    for block in blocks:
        means = sorted(
            (meter.guess_rdt(row, config, repeats=probe_repeats), row)
            for row in block
            if row not in selected
        )
        selected.extend(row for _, row in means[:per_block])
    return selected


def reference_campaign(module, configs, n_measurements: int, pairs):
    """A campaign measured pair by pair: ``guess_rdt``, then
    ``measure_series`` over the sweep that guess picks."""
    from repro.core import FastRdtMeter
    from repro.core.campaign import CampaignResult, RowObservation
    from repro.core.rdt import HammerSweep

    result = CampaignResult(module_id=module.module_id)
    for config in configs:
        module.set_temperature(config.temperature_c)
        for bank, row in pairs:
            meter = FastRdtMeter(module, bank)
            sweep = HammerSweep.from_guess(meter.guess_rdt(row, config))
            series = meter.measure_series(
                row, config, n_measurements, sweep=sweep
            )
            if series.n_failed_sweeps == len(series):
                continue
            result.observations.append(RowObservation(
                module_id=module.module_id, bank=bank, row=row,
                config=config, series=series,
            ))
    return result


def _campaign_workload(seed: int):
    """M1 and two random conditions (pattern, tAggOn, temperature)."""
    from repro.chips import build_module
    from repro.core import TestConfig
    from repro.core.patterns import ALL_PATTERNS

    pick = random.Random(seed + 12)
    module = build_module("M1", seed=seed)
    configs = [
        TestConfig(
            pick.choice(ALL_PATTERNS),
            t_agg_on_ns=pick.choice([module.timing.tRAS, 2_000.0]),
            temperature_c=pick.choice([50.0, 80.0]),
        )
        for _ in range(2)
    ]
    return module, configs


def campaign_oracle(seed: int) -> tuple:
    module, configs = _campaign_workload(seed)
    selection = reference_selection(
        module, configs[0], _SELECTION_BLOCK, _SELECTION_PER_BLOCK
    )
    result = reference_campaign(
        module, configs, _CAMPAIGN_N, _CAMPAIGN_PAIRS
    )
    return tuple(selection), _campaign_fingerprint(result)


def campaign_fast(seed: int) -> tuple:
    from repro.core.campaign import Campaign, select_vulnerable_rows

    module, configs = _campaign_workload(seed)
    selection = select_vulnerable_rows(
        module, configs[0], block_rows=_SELECTION_BLOCK,
        per_block=_SELECTION_PER_BLOCK,
    )
    campaign = Campaign(module, configs, n_measurements=_CAMPAIGN_N)
    result = campaign.run_pairs(_CAMPAIGN_PAIRS)
    return tuple(selection), _campaign_fingerprint(result)


# ----------------------------------------------------------------------
# memsim: per-request loop vs the epoch-batched MemorySystem.run
# ----------------------------------------------------------------------


@dataclass
class _BankState:
    ready: float = 0.0
    open_row: "int | None" = None
    last_act: float = -1e9


def next_address(generator) -> "tuple[int, int]":
    """(bank, row) of a core's next LLC miss, popped one at a time off
    the ``AddressGenerator`` buffer that ``take`` hands out in slices."""
    if generator._cursor >= generator._buf_banks.size:
        generator._refill()
    cursor = generator._cursor
    generator._cursor = cursor + 1
    return int(generator._buf_banks[cursor]), int(generator._buf_rows[cursor])


def reference_memsim_run(system, checker=None):
    """One simulation window, one Python iteration per request, calling the
    mitigation's per-activation reference (:func:`~tests.differential.
    mitigation_oracle.oracle_of`) on every activation.

    ``MemorySystem.run`` is held to this loop: requests and latency sums
    per core, row hits/misses, preventive refreshes and rank blocks. With a
    ``checker`` (anything with the ``TimingChecker.feed`` shape), every REF,
    PRE and ACT is fed to it in issue order. Consumes ``system``'s address
    sources, so each system should be run once. Like ``MemorySystem.run``,
    it leaves the run's counters on ``system.mitigation``.
    """
    from repro.dram.commands import Command, CommandKind
    from repro.memsim.system import (
        _T_BL, _T_CL, _T_RC, _T_RCD, _T_REFI, _T_RFC, _T_RP,
        SimulationResult, _feed,
    )
    from repro.mitigations.base import VICTIM_REFRESH_NS
    from tests.differential.mitigation_oracle import oracle_of

    config = system.config
    mitigation = None
    if system.mitigation is not None:
        mitigation = oracle_of(system.mitigation)
    banks = [_BankState() for _ in range(config.n_banks)]
    arrivals = [0.0] * 4  # next request arrival per core
    completed = [0] * 4
    latency_sums = [0.0] * 4
    row_hits = 0
    row_misses = 0
    bus_free = 0.0
    rank_blocked_until = 0.0
    next_ref = _T_REFI if config.refresh_enabled else float("inf")
    next_window = config.t_refw_ns

    while True:
        core = min(range(4), key=lambda c: arrivals[c])
        arrival = arrivals[core]
        if arrival >= config.window_ns:
            break
        bank_index, row = next_address(system._generators[core])
        bank = banks[bank_index]

        start = max(arrival, bank.ready, rank_blocked_until)

        # Periodic refresh stalls the rank.
        while next_ref <= start:
            ref_end = next_ref + _T_RFC
            if start < ref_end:
                start = ref_end
            if checker is not None:
                _feed(checker, Command(CommandKind.REF, next_ref))
            next_ref += _T_REFI
        # Tracking-window boundary for the mitigation.
        if mitigation is not None and start >= next_window:
            mitigation.on_refresh_window()
            next_window += config.t_refw_ns

        needs_act = bank.open_row != row
        if needs_act:
            row_misses += 1
            if bank.open_row is not None:
                start += _T_RP
            start = max(start, bank.last_act + _T_RC)
            if checker is not None:
                if bank.open_row is not None:
                    _feed(checker, Command(
                        CommandKind.PRE, start - _T_RP, bank=bank_index
                    ))
                _feed(checker, Command(
                    CommandKind.ACT, start, bank=bank_index, row=row
                ))
            bank.last_act = start
            access_latency = _T_RCD + _T_CL
        else:
            row_hits += 1
            access_latency = _T_CL

        completion = start + access_latency
        # Shared data bus serializes bursts.
        completion = max(completion, bus_free + _T_BL)
        bus_free = completion

        bank.open_row = row
        bank.ready = completion

        action = None
        if needs_act and mitigation is not None:
            action = mitigation.on_activate(bank_index, row)
        if action is not None:
            victims, rank_block_ns, bank_delays = action
            for victim_bank, _ in victims:
                if not 0 <= victim_bank < config.n_banks:
                    continue
                target = banks[victim_bank]
                target.ready = max(target.ready, completion) + VICTIM_REFRESH_NS
                # The refresh activates the victim row, closing whatever
                # was open in that bank.
                target.open_row = None
            if rank_block_ns > 0:
                rank_blocked_until = (
                    max(rank_blocked_until, completion) + rank_block_ns
                )
            for delayed_bank, delay_ns in bank_delays:
                if 0 <= delayed_bank < config.n_banks:
                    target = banks[delayed_bank]
                    target.ready = max(target.ready, completion) + delay_ns

        completed[core] += 1
        latency_sums[core] += completion - arrival
        arrivals[core] = completion + system._gaps[core]

    result = SimulationResult(
        mix_name=system.mix.name,
        mitigation_name=mitigation.name if mitigation else "baseline",
        window_ns=config.window_ns,
        requests_per_core=completed,
        total_latency_per_core=latency_sums,
        row_hits=row_hits,
        row_misses=row_misses,
    )
    if mitigation is not None:
        result.preventive_refreshes = mitigation.preventive_refreshes
        result.rank_blocks = mitigation.rank_blocks
        for counter in ("preventive_refreshes", "rank_blocks",
                        "throttled_activations"):
            if hasattr(mitigation, counter):
                setattr(system.mitigation, counter, getattr(mitigation, counter))
    return result


_MEMSIM_MITIGATIONS = ["Graphene", "PRAC", "PARA", "MINT", "BlockHammer"]
_MEMSIM_WINDOW_NS = 5_000.0


def _memsim_workload(seed: int, check_timing: bool = False):
    """A 5 us run; two of three tREFW choices put tracking-window
    boundaries inside it."""
    from repro.memsim.system import _T_REFW, MemorySystem, SystemConfig
    from repro.memsim.trace import standard_mixes
    from repro.mitigations import build_mitigation

    pick = random.Random(seed)
    mix = pick.choice(standard_mixes(3))
    name = pick.choice(_MEMSIM_MITIGATIONS)
    threshold = pick.choice([256.0, 1024.0])
    t_refw_ns = pick.choice([_T_REFW, 1_200.0, 2_700.0])
    config = SystemConfig(
        window_ns=_MEMSIM_WINDOW_NS, seed=seed, t_refw_ns=t_refw_ns,
        check_timing=check_timing,
    )
    return MemorySystem(mix, config, build_mitigation(name, threshold))


def memsim_fingerprint(result) -> tuple:
    return (
        result.mix_name,
        result.mitigation_name,
        tuple(result.requests_per_core),
        tuple(result.total_latency_per_core),
        result.row_hits,
        result.row_misses,
        result.preventive_refreshes,
        result.rank_blocks,
    )


def memsim_oracle(seed: int) -> tuple:
    return memsim_fingerprint(reference_memsim_run(_memsim_workload(seed)))


def memsim_fast(seed: int) -> tuple:
    return memsim_fingerprint(_memsim_workload(seed).run())


# ----------------------------------------------------------------------
# The reference row: the specification of one row of the device model
# ----------------------------------------------------------------------


def bit_is_true_cell(layout, row: int, bit: int) -> bool:
    """Polarity of one cell of a ``CellLayout`` (all true cells without
    one): the specification of ``CellLayout.bits_are_true_cells``."""
    if layout is None:
        return True
    if layout.kind is CellLayoutKind.MIXED:
        return ((bit >> 3) + row) % 2 == 0
    return layout.row_is_true_cell(row)


def charged_mask(layout, row: int, data_bits) -> np.ndarray:
    """The cells of a row that hold charge for the stored bits: true cells
    storing 1, anti cells storing 0. A weak cell of ``BankVrdState`` flips
    at its margin when charged and at a higher one when not;
    ``tests/dram/test_fastfaults.py`` holds its margins to this mask."""
    bits = np.asarray(data_bits, dtype=bool)
    true_cells = [bit_is_true_cell(layout, row, bit) for bit in range(bits.size)]
    return np.where(true_cells, bits, ~bits)


def bytes_to_bits(data) -> np.ndarray:
    """Unpack a uint8 row buffer to bits, LSB first within each byte."""
    return np.unpackbits(np.asarray(data, dtype=np.uint8), bitorder="little")


class ReferenceRow:
    """The VRD process of one DRAM row, row at a time with one ``Trap``
    object per trap: a scalar constructor, scalar condition factors, a
    one-shot series sampler and a per-step sequential chain.

    The specification of the device model: the packed ``BankVrdState``
    (the one constructor in ``src/``) draws each row's ``vrd-row`` stream
    in this constructor's order, its ``_factors`` resolves these factors
    for many rows at once, and ``RowVrdProcess`` steps this chain.
    """

    def __init__(self, params, row_bits, seed, identity, cell_layout=None):
        self.params = params
        self.identity = identity
        self._seed = seed
        module_id, bank, row = identity
        rng = derive(seed, "vrd-row", module_id, bank, row)

        # Spatial variation: base RDT of this row.
        self.base_rdt = float(
            params.mean_rdt * np.exp(rng.normal(0.0, params.spatial_sigma))
        )
        # Vulnerable (low base RDT) rows carry proportionally deeper traps.
        coupling = float(np.clip(
            (params.mean_rdt / self.base_rdt) ** params.vulnerability_coupling,
            0.5, 3.0,
        ))

        # Shallow fast traps, resampled every measurement.
        self.traps = []
        for _ in range(int(rng.poisson(params.trap_count_mean))):
            depth = float(np.clip(
                rng.exponential(params.depth_scale * params.severity * coupling),
                1e-4, 0.5,
            ))
            pi = float(rng.beta(2.0, 2.0))
            # Dwell ~ one measurement: successive measurements are
            # independent (Findings 3 and 4).
            self.traps.append(
                Trap(depth=depth, p_occupy=max(1e-6, pi), p_release=max(1e-6, 1.0 - pi))
            )
        # Slow shallow trap whose rare occupancy defines the series minimum.
        if rng.random() < params.rare_trap_prob:
            depth = float(np.clip(
                rng.uniform(0.85, 1.15) * params.rare_trap_depth * coupling,
                5e-3, 0.3,
            ))
            pi = float(np.exp(
                rng.uniform(np.log(params.rare_pi_lo), np.log(params.rare_pi_hi))
            ))
            # Near-unit release: the minimum appears as isolated excursions.
            speed = float(rng.uniform(0.8, 1.0))
            self.traps.append(Trap(
                depth=depth,
                p_occupy=max(1e-7, speed * pi),
                p_release=max(1e-7, speed * (1.0 - pi)),
            ))
        # Occasional slow deep trap: rare excursions to a much lower RDT.
        if rng.random() < params.big_trap_prob:
            depth = float(np.clip(
                rng.uniform(0.5, 1.0) * params.big_trap_depth * params.severity,
                0.02, 0.8,
            ))
            pi = float(np.exp(rng.uniform(np.log(0.002), np.log(0.2))))
            speed = float(rng.uniform(0.2, 1.0))
            self.traps.append(Trap(
                depth=depth,
                p_occupy=max(1e-6, speed * pi),
                p_release=max(1e-6, speed * (1.0 - pi)),
            ))

        # Residual measurement-to-measurement noise.
        self.sigma_resid = float(
            params.sigma_resid * coupling * np.exp(rng.normal(0.0, 0.4))
        )
        # Per-row condition responses, jittered around module-level values;
        # the wide pattern jitter drives Fig. 7's max-over-config CV.
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
        # gaps grow geometrically, so at most ~5 cells flip at a 10% margin.
        positions = rng.choice(row_bits, size=params.weak_cells, replace=False)
        self.weak_cell_bits = np.sort(positions.astype(np.int64))
        rng.shuffle(self.weak_cell_bits)  # margin order independent of position
        gaps = rng.exponential(params.cell_margin_scale, params.weak_cells)
        gaps = gaps * 2.0 ** np.arange(params.weak_cells)
        gaps[0] = 0.0
        self.weak_cell_margins = np.cumsum(gaps)
        self.weak_cell_true = np.array(
            [bit_is_true_cell(cell_layout, row, int(bit))
             for bit in self.weak_cell_bits],
            dtype=bool,
        )
        self.uncharged_penalty = float(rng.uniform(0.03, 0.15))
        self._states = {}

    def _taggon_rdt_factor(self, t_agg_on: float) -> float:
        """RowPress RDT factor, normalized to 1 at the reference on-time."""
        params = self.params

        def g(t: float) -> float:
            return 1.0 / (1.0 + (t / params.taggon_rdt_tau_ns) ** params.taggon_rdt_alpha)

        return g(t_agg_on) / g(REFERENCE_T_AGG_ON)

    def _cell_margins_for(self, pattern: str):
        """Per-weak-cell flip margins including the uncharged penalty."""
        if pattern in PATTERN_VICTIM_BYTE:
            bit_values = (PATTERN_VICTIM_BYTE[pattern] >> (self.weak_cell_bits % 8)) & 1
            charged = (bit_values == 1) == self.weak_cell_true
        else:
            charged = np.ones(len(self.weak_cell_bits), dtype=bool)
        return self.weak_cell_margins + np.where(charged, 0.0, self.uncharged_penalty)

    def factors(self, condition):
        """Resolve the condition multipliers for this row."""
        condition = condition.canonical()
        pattern = condition.pattern
        params = self.params
        undervolt = REFERENCE_WORDLINE_VOLTAGE - condition.wordline_voltage
        rdt_factor = (
            self._pattern_rdt.get(pattern, 1.0)
            * self._taggon_rdt_factor(condition.t_agg_on)
            * max(0.05, 1.0 + params.temp_rdt_coeff
                  * (condition.temperature - REFERENCE_TEMPERATURE))
            * max(0.05, 1.0 + params.voltage_rdt_coeff * undervolt)
        )
        decades = math.log10(condition.t_agg_on / REFERENCE_T_AGG_ON)
        taggon_term = (
            1.0
            + self._taggon_depth_slope * decades
            + params.taggon_depth_quad * decades * decades
        )
        depth_factor = (
            self._pattern_depth.get(pattern, 1.0)
            * max(0.05, taggon_term)
            * max(0.05, 1.0 + self._temp_depth_coeff
                  * (condition.temperature - REFERENCE_TEMPERATURE))
            * max(0.05, 1.0 + params.voltage_depth_coeff * undervolt)
        )
        margins = self._cell_margins_for(pattern)
        return ConditionFactors(
            rdt_factor=float(rdt_factor),
            depth_factor=float(depth_factor),
            first_flip_margin=float(margins.min()),
        )

    def latent_series(self, condition, n: int, stream: str = "series"):
        """Latent thresholds of ``n`` measurements as one product: every
        trap's bool column (:func:`reference_occupancy_series`),
        ``np.stack``, one ``@`` with the log depth terms, then one
        ``normal(0, sigma, n)`` draw."""
        condition = condition.canonical()
        factors = self.factors(condition)
        module_id, bank, row = self.identity
        rng = derive(
            self._seed, "vrd-series", module_id, bank, row,
            condition.pattern, str(condition.t_agg_on),
            str(condition.temperature), str(condition.wordline_voltage),
            stream,
        )
        if self.traps:
            columns = [reference_occupancy_series(trap, n, rng) for trap in self.traps]
            occupancy = np.stack(columns, axis=1)
            depths = np.array([trap.depth for trap in self.traps])
            log_terms = np.log1p(-np.minimum(depths * factors.depth_factor, 0.95))
            with single_threaded_blas():
                mult = np.exp(occupancy @ log_terms)
        else:
            mult = np.ones(n)
        noise = np.exp(rng.normal(0.0, self.sigma_resid, n))
        level = self.base_rdt * factors.rdt_factor * (1.0 + factors.first_flip_margin)
        return level * mult * noise

    def _state(self, condition):
        condition = condition.canonical()
        state = self._states.get(condition)
        if state is None:
            module_id, bank, row = self.identity
            rng = derive(
                self._seed, "vrd-seq", module_id, bank, row,
                condition.pattern, str(condition.t_agg_on),
                str(condition.temperature), str(condition.wordline_voltage),
            )
            state = SimpleNamespace(
                occupancy=[trap.sample_initial(rng) for trap in self.traps],
                rng=rng, latent_rdt=math.nan, measurement_index=0,
            )
            self._refresh_latent(condition, state)
            self._states[condition] = state
        return state

    def _refresh_latent(self, condition, state) -> None:
        factors = self.factors(condition)
        log_mult = 0.0
        for trap, occupied in zip(self.traps, state.occupancy):
            if occupied:
                log_mult += math.log1p(-min(trap.depth * factors.depth_factor, 0.95))
        noise = math.exp(state.rng.normal(0.0, self.sigma_resid))
        state.latent_rdt = (
            self.base_rdt * factors.rdt_factor * math.exp(log_mult) * noise
        )

    def begin_measurement(self, condition) -> None:
        """Advance the latent chain one measurement step: each trap leaves
        its state when a uniform falls below its leave probability, then
        the residual is drawn afresh."""
        state = self._state(condition)
        occupancy = []
        for trap, occupied in zip(self.traps, state.occupancy):
            p_leave = trap.p_release if occupied else trap.p_occupy
            occupancy.append(not occupied if state.rng.random() < p_leave else occupied)
        state.occupancy = occupancy
        self._refresh_latent(condition, state)
        state.measurement_index += 1

    def current_threshold(self, condition) -> float:
        """The hammer count at which the current measurement first flips."""
        state = self._state(condition)
        return state.latent_rdt * (1.0 + self.factors(condition).first_flip_margin)

    def trial_flips(self, condition, effective_hammers: float) -> list:
        """Bit positions that flip in one trial: the weakest cell at the
        latent threshold, every other cell under a per-trial jitter."""
        state = self._state(condition)
        margins = self._cell_margins_for(condition.canonical().pattern)
        weakest = int(np.argmin(margins))
        flips = []
        for index, (bit, margin) in enumerate(zip(self.weak_cell_bits, margins)):
            threshold = state.latent_rdt * (1.0 + margin)
            if index != weakest:
                threshold *= math.exp(
                    abs(state.rng.normal(0.0, self.params.cell_jitter_sigma))
                )
            if effective_hammers >= threshold:
                flips.append(int(bit))
        return flips


def reference_row(model, bank: int, row: int) -> ReferenceRow:
    """The reference row of ``row`` of ``bank`` in a ``ModuleFaultModel``."""
    return ReferenceRow(
        model.params, model.row_bits, model.seed, (model.module_id, bank, row),
        cell_layout=model.cell_layout,
    )


# ----------------------------------------------------------------------
# fastfaults: per-row reference rows vs packed bank state
# ----------------------------------------------------------------------

#: Series lengths of the fastfaults pairs: empty, one step, both sides of
#: the short-series limit (``traps._MIN_BATCH``), and a longer series.
_FAULT_SERIES_NS = (0, 1, 16, 17, 40)


def _fault_workload(seed: int):
    from tests.conftest import make_module

    module = make_module("DIFF", seed=seed)
    pick = random.Random(seed + 1)
    rows = sorted(pick.sample(range(module.geometry.n_rows), 4))
    from repro.core import CHECKERED0, TestConfig

    config = TestConfig(
        CHECKERED0,
        t_agg_on_ns=module.timing.tRAS,
        temperature_c=pick.choice([50.0, 80.0]),
    )
    return module, rows, config.condition(module.timing)


def _fault_series(model, rows, condition, fast: bool) -> tuple:
    """Every length of :data:`_FAULT_SERIES_NS` for ``rows`` of bank 0,
    then each row's condition factors (a last-bit change in a depth
    factor rarely reaches a series value): one packed bank query per
    length and the state's factor routine, or one reference row per row."""
    if fast:
        state = model.bank_state(0, rows)
        rdt, depth, _, first_flip, _ = state._factors(condition.canonical())
        return tuple(
            tuple(map(tuple, state.latent_series_bulk(condition, n).tolist()))
            for n in _FAULT_SERIES_NS
        ) + (tuple(zip(rdt.tolist(), depth.tolist(), first_flip.tolist())),)
    references = [reference_row(model, 0, row) for row in rows]
    return tuple(
        tuple(tuple(ref.latent_series(condition, n).tolist()) for ref in references)
        for n in _FAULT_SERIES_NS
    ) + (tuple(astuple(ref.factors(condition)) for ref in references),)


def _fastfaults(seed: int, fast: bool) -> tuple:
    """The workload's rows, plus one row of a model without traps."""
    from tests.conftest import make_module

    module, rows, condition = _fault_workload(seed)
    bare = make_module(
        "DIFF", seed=seed,
        trap_count_mean=0.0, rare_trap_prob=0.0, big_trap_prob=0.0,
    )
    return (
        _fault_series(module.fault_model, rows, condition, fast),
        _fault_series(bare.fault_model, rows[:1], condition, fast),
    )


def fastfaults_oracle(seed: int) -> tuple:
    return _fastfaults(seed, fast=False)


def fastfaults_fast(seed: int) -> tuple:
    return _fastfaults(seed, fast=True)


def _catalog_fault_workload(seed: int, module_id: str):
    """Like :func:`_fault_workload` but on a catalog device, so the pair
    runs under the device's real protocol geometry (DDR5 bank groups,
    HBM2 pseudo channels)."""
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig

    module = build_module(module_id, seed=seed)
    pick = random.Random(seed + 7)
    rows = sorted(pick.sample(range(module.geometry.n_rows), 4))
    config = TestConfig(
        CHECKERED0,
        t_agg_on_ns=module.timing.tRAS,
        temperature_c=pick.choice([50.0, 80.0]),
    )
    return module, rows, config.condition(module.timing)


def _catalog_fault_series(seed: int, module_id: str, fast: bool) -> tuple:
    module, rows, condition = _catalog_fault_workload(seed, module_id)
    return _fault_series(module.fault_model, rows, condition, fast)


def fastfaults_ddr5_oracle(seed: int) -> tuple:
    return _catalog_fault_series(seed, "D0", fast=False)


def fastfaults_ddr5_fast(seed: int) -> tuple:
    return _catalog_fault_series(seed, "D0", fast=True)


def fastfaults_hbm2_oracle(seed: int) -> tuple:
    return _catalog_fault_series(seed, "Chip0", fast=False)


def fastfaults_hbm2_fast(seed: int) -> tuple:
    return _catalog_fault_series(seed, "Chip0", fast=True)


# ----------------------------------------------------------------------
# long-series: block-wise latent generation vs the one-shot product
# ----------------------------------------------------------------------


def reference_occupancy_series(trap, n: int, rng):
    """One trap's occupancy as one bool array: whole geometric batches,
    each expanded with ``np.repeat`` (the sampler before bit packing)."""
    from repro.dram.traps import _MAX_P, _MIN_BATCH, _MIN_P, check_series_length

    check_series_length(n)
    if n == 0:
        return np.zeros(0, dtype=bool)
    state = trap.sample_initial(rng)
    p_occupy = min(max(trap.p_occupy, _MIN_P), _MAX_P)
    p_release = min(max(trap.p_release, _MIN_P), _MAX_P)
    states, lengths = [], []
    covered = 0
    while covered < n:
        mean_run = 0.5 * (1.0 / p_occupy + 1.0 / p_release)
        batch = max(_MIN_BATCH, int((n - covered) / mean_run * 1.5) + 8)
        batch_states = np.empty(batch, dtype=bool)
        batch_states[0::2] = state
        batch_states[1::2] = not state
        batch_lengths = rng.geometric(np.where(batch_states, p_release, p_occupy))
        np.minimum(batch_lengths, n - covered, out=batch_lengths)
        states.append(batch_states)
        lengths.append(batch_lengths)
        covered += int(batch_lengths.sum())
        state = not bool(batch_states[-1])
    return np.repeat(np.concatenate(states), np.concatenate(lengths))[:n]


@lru_cache(maxsize=None)
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of the OpenBLAS this process
    loaded, or ``None`` where none is found (other BLAS, non-Linux)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextlib.contextmanager
def single_threaded_blas():
    """Run the enclosed BLAS calls on one OpenBLAS thread.

    With more threads, OpenBLAS splits a large ``gemv`` (460,800 elements
    or more) between them at an arbitrary row, and the rows just before the
    split take the remainder kernel, whose sums can differ in the last
    bit. Pinned to one thread, the one-shot product is the same function
    of its inputs on every host.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    getter, setter = controls
    threads = getter()
    setter(1)
    try:
        yield
    finally:
        setter(threads)


def _long_lengths() -> tuple:
    """Series lengths around the block size (up to ``block + 1`` a series
    is one block), two blocks whose one-row tail joins the second, and
    three blocks plus a tail."""
    from repro.dram.traps import SERIES_BLOCK as block

    return (0, 1, block - 1, block, block + 1, 2 * block + 1, 3 * block + 17)


#: Trap counts of the rows the pair measures.
_LONG_TRAP_COUNTS = (0, 1, 2, 5, 12, 20, 32)


def _long_series_rows(seed: int) -> list:
    """One ``(module, row)`` per trap count of :data:`_LONG_TRAP_COUNTS`:
    the first row of a module whose trap-count mean centers on it. Small
    counts come without the rare and deep traps, large ones with them."""
    from tests.conftest import make_module

    found = []
    for count in _LONG_TRAP_COUNTS:
        extra = 2 if count >= 5 else 0
        module = make_module(
            "LONG", seed=seed + count,
            trap_count_mean=float(max(count - extra, 0)),
            rare_trap_prob=1.0 if extra else 0.0,
            big_trap_prob=1.0 if extra else 0.0,
        )
        row = next(
            row for row in range(module.geometry.n_rows)
            if len(reference_row(module.fault_model, 0, row).traps) == count
        )
        found.append((module, row))
    return found


def _long_series(seed: int, route: str) -> tuple:
    from repro.core import CHECKERED0, TestConfig

    out = []
    for module, row in _long_series_rows(seed):
        condition = TestConfig(
            CHECKERED0, t_agg_on_ns=module.timing.tRAS
        ).condition(module.timing)
        model = module.fault_model
        for n in _long_lengths():
            if route == "oracle":
                series = reference_row(model, 0, row).latent_series(condition, n)
            elif route == "blocks":
                blocks = model.process(0, row).latent_blocks(condition, n)
                series = np.concatenate([values for _, values in blocks] + [np.zeros(0)])
            else:
                series = model.latent_series_bank(0, [row], condition, n)[0]
            out.append(series.tobytes())
    return tuple(out)


def long_series_oracle(seed: int) -> tuple:
    series = _long_series(seed, "oracle")
    return series + series


def long_series_fast(seed: int) -> tuple:
    """The streaming ``RowVrdProcess.latent_blocks`` route (what
    ``measure`` consumes), then the packed bank route, over the same rows
    and lengths."""
    return _long_series(seed, "blocks") + _long_series(seed, "bank")


# ----------------------------------------------------------------------
# probe: per-row reference guess streams vs the batched row probe
# ----------------------------------------------------------------------

_PROBE_MODULES = ["M0", "M1", "H1", "S0", "S3", "Chip0"]


def _probe_workload(seed: int):
    """A catalog module (row-block or mixed polarity, identity or
    scrambled row mapping), a random row set, and a random condition."""
    from repro.chips import build_module
    from repro.core import FastRdtMeter, TestConfig
    from repro.core.patterns import ALL_PATTERNS

    pick = random.Random(seed + 8)
    module = build_module(pick.choice(_PROBE_MODULES), seed=seed)
    rows = sorted(pick.sample(range(module.geometry.n_rows), 12))
    config = TestConfig(
        pick.choice(ALL_PATTERNS),
        t_agg_on_ns=pick.choice([module.timing.tRAS, 2_000.0]),
        temperature_c=pick.choice([50.0, 80.0]),
    )
    return FastRdtMeter(module, bank=0), rows, config


#: Probe repeats: one sample, a few, the default 10, and the most that
#: one geometric batch always covers (``traps._MIN_BATCH``).
_PROBE_REPEATS = (1, 5, 10, 16)


def probe_oracle(seed: int) -> tuple:
    """Each row's reference guess-stream mean: what ``guess_rdt`` returns."""
    meter, rows, config = _probe_workload(seed)
    module = meter.module
    condition = config.condition(module.timing)
    physical = [module.bank(0).mapping.to_physical(row) for row in rows]
    references = [reference_row(module.fault_model, 0, row) for row in physical]
    return tuple(
        tuple(
            float(reference.latent_series(condition, repeats, stream="guess").mean())
            for reference in references
        )
        for repeats in _PROBE_REPEATS
    )


def probe_fast(seed: int) -> tuple:
    meter, rows, config = _probe_workload(seed)
    return tuple(
        tuple(meter.guess_rdt_batch(rows, config, repeats=repeats).tolist())
        for repeats in _PROBE_REPEATS
    )


# ----------------------------------------------------------------------
# bender: interpreted trial programs vs compiled plan replay
# ----------------------------------------------------------------------

def interpreted_trial(
    bender, bank: int, victim: int, pattern, hammer_count: int,
    t_agg_on: float,
) -> list:
    """One Algorithm 1 trial on the scalar interpreter: run the host's
    trial program, then compare the victim's readback byte for byte.

    ``DramBender.run_trial`` replays a compiled plan of the same program;
    this is the specification it is held to (flips, clock, command counts
    and device state).
    """

    program = bender.trial_program(
        bank, victim, pattern, hammer_count, t_agg_on
    )
    observed = bender.interpreter.run(program).reads["victim"]
    expected = np.full(
        bender.module.geometry.row_bytes, pattern.victim_byte, dtype=np.uint8
    )
    delta = np.unpackbits(observed ^ expected, bitorder="little")
    return [int(bit) for bit in np.nonzero(delta)[0]]


def _bender_trials(
    seed: int, interpreted: bool, module_id: "str | None" = None
) -> tuple:
    """Trial fingerprint: :func:`interpreted_trial` or ``run_trial``.

    ``module_id`` selects a catalog device (protocol, timing table, and
    bank-group topology included); ``None`` keeps the small ad-hoc DDR4
    module the original case was tuned for.
    """
    from repro.bender.host import DramBender
    from repro.core import CHECKERED0, TestConfig

    pick = random.Random(seed + 3)
    victim = pick.randrange(50, 200)
    if module_id is None:
        from tests.conftest import make_module

        # Straddle the small module's ~2000-activation mean RDT so some
        # trials flip and some survive, with seed-dependent counts.
        counts = sorted(pick.sample(range(500, 8000), 3)) + [12_000]
        module = make_module(seed=seed)
    else:
        from repro.chips import build_module, spec

        # Same idea, scaled to the device's catalog RDT floor.
        floor = int(spec(module_id).min_rdt_tras)
        counts = sorted(
            pick.sample(range(floor // 3, floor + floor // 5), 3)
        ) + [3 * floor]
        module = build_module(module_id, seed=seed)
    bender = DramBender(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    bender.begin_measurement(0, victim, config.pattern, config.t_agg_on_ns)
    trial = (
        partial(interpreted_trial, bender) if interpreted else bender.run_trial
    )
    flips = tuple(
        tuple(trial(0, victim, config.pattern, count, config.t_agg_on_ns))
        for count in counts
    )
    totals = tuple(sorted(bender.interpreter.total_counts.items()))
    return flips, bender.interpreter.now, totals


def bender_oracle(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=True)


def bender_fast(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=False)


def bender_ddr5_oracle(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=True, module_id="D0")


def bender_ddr5_fast(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=False, module_id="D0")


def bender_hbm2_oracle(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=True, module_id="Chip0")


def bender_hbm2_fast(seed: int) -> tuple:
    return _bender_trials(seed, interpreted=False, module_id="Chip0")


# ----------------------------------------------------------------------
# checker-bender: the recorded interpreted trial under the full rule
# table vs compile_trial's certificate
# ----------------------------------------------------------------------

@contextlib.contextmanager
def recording(module):
    """Record the command stream interpreters send to ``module``.

    The command times are read off the module calls the interpreter already
    makes, by shadowing them on the instance while the context is open;
    the yielded list collects :mod:`repro.dram.commands` entries in time
    order. A row write or read passes its finish time, so the recorded
    burst starts that time less the burst's tail (``tRTP`` included for a
    read), which can sit a few ULP off the scheduler's own start: within
    the checker's ``_tol``.
    """
    from repro.dram.commands import (
        Command, CommandBurst, CommandKind, HammerBlock,
    )

    stream: list = []
    timing = module.timing
    columns = module.geometry.columns_per_row

    def activate(bank, row, at):
        stream.append(Command(CommandKind.ACT, at, bank=bank, row=row))
        calls["activate"](bank, row, at)

    def precharge(bank, at):
        stream.append(Command(CommandKind.PRE, at, bank=bank))
        calls["precharge"](bank, at)

    def write_row(bank, row, data, at):
        first = at - (columns - 1) * timing.tCCD_L_WR
        stream.append(CommandBurst(
            CommandKind.WR, first, timing.tCCD_L_WR, columns,
            bank=bank, row=row,
        ))
        calls["write_row"](bank, row, data, at)

    def read_row(bank, row, at):
        first = at - timing.tRTP - (columns - 1) * timing.tCCD_L
        stream.append(CommandBurst(
            CommandKind.RD, first, timing.tCCD_L, columns,
            bank=bank, row=row,
        ))
        return calls["read_row"](bank, row, at)

    def bulk_hammer(bank, rows, count, t_agg_on, start):
        first_act = max(start, module.bank(bank).last_precharge + timing.tRP)
        if count and rows:
            stream.append(HammerBlock(
                bank, tuple(rows), count, t_agg_on, timing.tRP, first_act
            ))
        return calls["bulk_hammer"](bank, rows, count, t_agg_on, start)

    # Every module call an interpreter makes with a command time.
    shims = (activate, precharge, write_row, read_row, bulk_hammer)
    calls = {shim.__name__: getattr(module, shim.__name__) for shim in shims}
    for shim in shims:
        setattr(module, shim.__name__, shim)
    try:
        yield stream
    finally:
        for shim in shims:
            delattr(module, shim.__name__)


def expand_stream(entries):
    """Every single command of a stream of entries, in order."""
    from repro.dram.commands import Command

    for entry in entries:
        if isinstance(entry, Command):
            yield entry
        else:
            yield from entry.expand()


def with_timing(module, **overrides):
    """``module`` with its timing preset overridden, banks included."""
    timing = replace(module.timing, **overrides)
    module.timing = timing
    for bank in module.banks:
        bank.timing = timing
    return module


def _checker_bender_case(seed: int) -> tuple:
    """A random Algorithm 1 trial (device, victim, pattern, tAggOn, init
    radius) whose timing preset may stretch tFAW or tRRD_L — rules the
    interpreter does not pace for — past what the trial meets."""
    from repro.bender.host import DramBender
    from repro.chips import build_module
    from repro.chips.catalog import EXTENDED_SPECS
    from repro.core.patterns import ALL_PATTERNS

    # The offset makes SEEDS cover a clean HBM2 plan, a DDR5 tRRD_L
    # refusal and a DDR4 tFAW refusal.
    pick = random.Random(seed + 279)
    module = build_module(pick.choice(EXTENDED_SPECS).module_id, seed=seed)
    timing = module.timing
    rule = pick.choice(("tFAW", "tRRD_L", None))
    if rule is not None:
        with_timing(module, **{rule: timing.tRC * pick.uniform(0.5, 4.5)})
    bender = DramBender(module, init_radius=pick.randint(1, 4))
    victim = pick.randrange(module.geometry.n_rows)
    t_agg_on = pick.choice((timing.tRAS, 2 * timing.tRAS, 300.0))
    return bender, victim, pick.choice(ALL_PATTERNS), t_agg_on


def checker_bender_oracle(seed: int) -> tuple:
    """The full rule table's first violation, if any, on the recorded
    stream of interpreted trials: from a fresh module, the hammer counts
    up to the first with a full tFAW window of activations, ``k``, in the
    order ``0, 0``, then for each ``m`` in ``1..k``: ``m, m``, ``j, m``
    for ``0 < j < m``, and ``0`` -- every ordered pair back to back."""
    from repro.dram.checker import TimingChecker

    bender, victim, pattern, t_agg_on = _checker_bender_case(seed)
    module = bender.module
    last = -(-4 // len(bender.aggressors_for(0, victim)))
    counts = [0, 0]
    for m in range(1, last + 1):
        counts += [m, m] + [count for j in range(1, m) for count in (j, m)] + [0]
    with recording(module) as stream:
        for count in counts:
            bender.interpreter.run(bender.trial_program(
                0, victim, pattern, count, t_agg_on
            ))
    checker = TimingChecker(timing=module.timing, geometry=module.geometry)
    for entry in stream:
        checker.feed(entry)
    first = [(v.index, v.rule) for v in checker.report.violations[:1]]
    return module.module_id, victim, first


def checker_bender_fast(seed: int) -> tuple:
    """``compile_trial``'s verdict on the same trial: the violation its
    :class:`~repro.errors.TimingViolationError` names, if it refuses."""
    import re

    from repro.errors import TimingViolationError

    bender, victim, pattern, t_agg_on = _checker_bender_case(seed)
    try:
        bender.compiled_trial(0, victim, pattern, t_agg_on)
    except TimingViolationError as exc:
        found = re.search(r"command #(\d+) .* violates (\w+):", str(exc))
        return bender.module.module_id, victim, [
            (int(found[1]), found[2])
        ]
    return bender.module.module_id, victim, []


# ----------------------------------------------------------------------
# checker-memsim: timing validation on vs off must be invisible in results
# ----------------------------------------------------------------------

def checker_memsim_oracle(seed: int) -> tuple:
    return memsim_fast(seed)


def checker_memsim_fast(seed: int) -> tuple:
    """The memsim workload with its timing check on: results must match
    the unchecked run bit for bit (and legal streams must not raise)."""
    return memsim_fingerprint(_memsim_workload(seed, check_timing=True).run())


# ----------------------------------------------------------------------
# ecc: the scalar codecs, one codeword at a time
# ----------------------------------------------------------------------
#
# The specification of the batched codecs in ``repro.ecc``: GF(256)
# arithmetic by shift-and-add rather than the log tables, and each
# codeword encoded and decoded symbol by symbol. ``tests/ecc/
# test_batch.py`` holds ``encode_batch``/``decode_batch`` and the field's
# array operations to these, trial for trial.


@lru_cache(maxsize=None)
def gf_mul(a: int, b: int) -> int:
    """GF(256) product, reducing by x^8 + x^4 + x^3 + x^2 + 1 (0x11D)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


@lru_cache(maxsize=None)
def gf_pow(a: int, power: int) -> int:
    result = 1
    for _ in range(power):
        result = gf_mul(result, a)
    return result


def gf_div(a: int, b: int) -> int:
    """``a / b`` as ``a * b^254`` (the multiplicative group has order 255)."""
    return gf_mul(a, gf_pow(b, 254))


@lru_cache(maxsize=None)
def gf_log(value: int) -> int:
    """Discrete log base alpha = 2 of a nonzero element."""
    power, element = 0, 1
    while element != value:
        power, element = power + 1, gf_mul(element, 2)
        if power == 255:
            raise ConfigurationError(f"{value} is not a power of alpha")
    return power


def _hamming_syndrome(code, bits) -> int:
    """XOR of the parity-check columns of the set bits."""
    syndrome = 0
    for column, bit in zip(code._columns.tolist(), bits):
        if bit:
            syndrome ^= column
    return syndrome


def _to_symbols(bits) -> list:
    """Byte symbols of a bit array, symbol i = bits [8i, 8i+8), LSB first."""
    return np.packbits(
        np.asarray(bits, dtype=np.uint8).reshape(-1, 8), axis=1,
        bitorder="little",
    ).reshape(-1).tolist()


def _to_bits(symbols) -> np.ndarray:
    return np.unpackbits(
        np.array(symbols, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    ).reshape(-1)


def _chipkill_syndromes(symbols) -> "tuple[int, int]":
    s0 = s1 = 0
    for index, value in enumerate(symbols):
        s0 ^= value
        s1 ^= gf_mul(value, gf_pow(2, index))
    return s0, s1


def scalar_encode(code, data) -> np.ndarray:
    """One codeword of ``code`` (``Sec72``, ``Secded72`` or
    ``ChipkillSsc``): the data followed by its check bits or symbols."""
    from repro.ecc.chipkill import ChipkillSsc

    data = np.asarray(data, dtype=np.uint8)
    if not isinstance(code, ChipkillSsc):
        syndrome = _hamming_syndrome(code, data)
        parity = [(syndrome >> bit) & 1 for bit in range(code.n_bits - 64)]
        return np.concatenate([data, np.array(parity, dtype=np.uint8)])
    # Check symbols p16, p17 make both syndromes vanish:
    #   p16 + p17 = s0;  p16 * alpha^16 + p17 * alpha^17 = s1.
    symbols = _to_symbols(data)
    s0, s1 = _chipkill_syndromes(symbols)
    a16, a17 = gf_pow(2, 16), gf_pow(2, 17)
    p17 = gf_div(s1 ^ gf_mul(s0, a16), a16 ^ a17)
    return _to_bits(symbols + [s0 ^ p17, p17])


def scalar_decode(code, codeword) -> "tuple[np.ndarray, int]":
    """The data estimate of one received codeword and the decoder's
    outcome code (``repro.ecc.base.OUTCOME_CLEAN`` and friends).

    SEC and SECDED correct the one bit whose column equals the syndrome
    (SECDED only for odd-weight syndromes); Chipkill corrects one symbol
    error of value ``s0`` at ``log(s1 / s0)``. Anything else is detected.
    """
    from repro.ecc.base import OUTCOME_CLEAN, OUTCOME_CORRECTED, OUTCOME_DETECTED
    from repro.ecc.chipkill import ChipkillSsc
    from repro.ecc.hamming import Secded72

    bits = np.asarray(codeword, dtype=np.uint8)
    k = code.k_bits
    if not isinstance(code, ChipkillSsc):
        syndrome = _hamming_syndrome(code, bits)
        if syndrome == 0:
            return bits[:k].copy(), OUTCOME_CLEAN
        columns = code._columns.tolist()
        odd = bin(syndrome).count("1") % 2 == 1
        if syndrome in columns and (odd or not isinstance(code, Secded72)):
            repaired = bits.copy()
            repaired[columns.index(syndrome)] ^= 1
            return repaired[:k], OUTCOME_CORRECTED
        return bits[:k].copy(), OUTCOME_DETECTED
    symbols = _to_symbols(bits)
    s0, s1 = _chipkill_syndromes(symbols)
    if s0 == 0 and s1 == 0:
        return bits[:k].copy(), OUTCOME_CLEAN
    if s0 and s1:
        position = gf_log(gf_div(s1, s0))
        if position < len(symbols):
            symbols[position] ^= s0
            return _to_bits(symbols)[:k], OUTCOME_CORRECTED
    return bits[:k].copy(), OUTCOME_DETECTED


# ----------------------------------------------------------------------
# ecc: whole-chunk draws + per-codeword decode vs blocked batch decode
# ----------------------------------------------------------------------


def reference_monte_carlo(code, ber: float, trials: int, rng):
    """The unblocked Monte Carlo loop: per chunk, one ``(chunk, k_bits)``
    data draw and one ``(chunk, n_bits)`` uniform draw, then every codeword
    encoded and decoded one at a time."""
    from repro.ecc.analysis import _MC_CHUNK, MonteCarloOutcome
    from repro.ecc.base import OUTCOME_DETECTED

    wrong = silent_wrong = detected = 0
    for done in range(0, trials, _MC_CHUNK):
        chunk = min(_MC_CHUNK, trials - done)
        data = rng.integers(0, 2, (chunk, code.k_bits), dtype=np.uint8)
        errors = (rng.random((chunk, code.n_bits)) < ber).astype(np.uint8)
        for index in range(chunk):
            decoded, outcome = scalar_decode(
                code, scalar_encode(code, data[index]) ^ errors[index]
            )
            is_detected = outcome == OUTCOME_DETECTED
            data_wrong = not np.array_equal(decoded, data[index])
            detected += is_detected
            wrong += data_wrong
            silent_wrong += data_wrong and not is_detected
    return MonteCarloOutcome(
        scheme=type(code).__name__,
        trials=trials,
        uncorrectable=wrong / trials,
        undetectable=silent_wrong / trials,
        detected=detected / trials,
    )


def _ecc_runs(seed: int) -> list:
    """One codec and three (BER, trials) runs per seed: BER 0 (no row
    decoded) across a block boundary, a low BER across a chunk and a block
    boundary, and BER 0.05 (nearly every SSC row decoded)."""
    from repro.ecc.analysis import _MC_BLOCK, _MC_CHUNK, default_codec

    pick = random.Random(seed + 2)
    code = default_codec(pick.choice(["SEC", "SECDED", "SSC"]))
    return [
        (code, 0.0, _MC_BLOCK + pick.randrange(1, _MC_BLOCK)),
        (
            code,
            pick.choice([5e-5, 2e-4, 1e-3]),
            _MC_CHUNK + pick.randrange(_MC_BLOCK + 1, 2 * _MC_BLOCK),
        ),
        (code, 0.05, _MC_BLOCK + pick.randrange(1, _MC_BLOCK)),
    ]


def ecc_oracle(seed: int) -> tuple:

    return tuple(
        astuple(
            reference_monte_carlo(
                code, ber, trials, np.random.default_rng(seed)
            )
        )
        for code, ber, trials in _ecc_runs(seed)
    )


def ecc_fast(seed: int) -> tuple:
    from repro.ecc.analysis import monte_carlo_outcomes

    return tuple(
        astuple(
            monte_carlo_outcomes(
                code, ber, trials=trials, rng=np.random.default_rng(seed)
            )
        )
        for code, ber, trials in _ecc_runs(seed)
    )


# ----------------------------------------------------------------------
# store: in-memory result payloads vs sqlite ResultStore round trip
# ----------------------------------------------------------------------

_STORE_ROWS = [3, 11]
_STORE_N = 10


def _store_workloads(seed: int):
    """One (campaign, sweep) result pair per seed, computed once. Cached
    because both sides must see the *same* in-memory results — the case
    is about storage fidelity, not measurement."""
    cached = _STORE_WORKLOADS.get(seed)
    if cached is not None:
        return cached

    from repro.chips import build_module
    from repro.core import CHECKERED0, Campaign, TestConfig
    from repro.memsim.sweep import SweepSpec, run_sweep

    module = build_module("M1", seed=seed)
    configs = [TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)]
    campaign = Campaign(module, configs, n_measurements=_STORE_N).run(
        _STORE_ROWS
    )
    pick = random.Random(seed + 5)
    spec = SweepSpec(
        mitigations=("PARA",), rdts=(1024.0,),
        margins=(pick.choice([0.0, 0.25]),),
        n_mixes=1, window_ns=2_000.0, n_rows=1 << 8,
        seed=seed % 997 + 1,
    )
    sweep = run_sweep(spec)
    _STORE_WORKLOADS[seed] = (configs, campaign, spec, sweep)
    return _STORE_WORKLOADS[seed]


_STORE_WORKLOADS: dict = {}


def _store_fingerprint(campaign, sweep) -> tuple:
    """The two results' payloads as one canonical JSON string. A
    campaign payload carries each series as its float64 bytes, so equal
    fingerprints mean bit-identical series."""
    import json

    from repro.core.store import campaign_to_dict

    return (json.dumps({
        "campaign": campaign_to_dict(campaign),
        "sweep": sweep.to_payload(),
    }, sort_keys=True),)


def store_oracle(seed: int) -> tuple:
    _, campaign, _, sweep = _store_workloads(seed)
    return _store_fingerprint(campaign, sweep)


def store_fast(seed: int) -> tuple:
    """Store the seed's two results in a fresh sqlite store, reload
    them, and fingerprint what came back."""
    import tempfile
    from pathlib import Path

    from repro.core.engine import CampaignCache
    from repro.memsim.sweep import SweepResult, sweep_key
    from repro.store import KIND_SWEEP

    configs, campaign, spec, sweep = _store_workloads(seed)
    pairs = [(0, row) for row in _STORE_ROWS]
    with tempfile.TemporaryDirectory() as tmp:
        campaign_cache = CampaignCache(Path(tmp))
        store = campaign_cache.result_store
        campaign_key = campaign_cache.key(
            seed=seed, module_id="M1", configs=configs,
            n_measurements=_STORE_N, pairs=pairs,
        )
        campaign_cache.store(campaign_key, campaign)
        store.save(sweep_key(spec), KIND_SWEEP, sweep.to_payload())
        fingerprint = _store_fingerprint(
            campaign_cache.load(campaign_key),
            store.load(sweep_key(spec), KIND_SWEEP, SweepResult.from_payload),
        )
        store.close()
    return fingerprint


# ----------------------------------------------------------------------
# attack: per-window scalar stepping vs the hoisted threshold walk
# ----------------------------------------------------------------------

_ATTACK_KINDS = ("graphene", "prac", "para", "mint")
_ATTACK_SCENARIOS = ((5, 0.0), (5, 0.5))
#: More than one exposure chunk of ``attack_escape``, so chunk
#: boundaries are compared too.
_ATTACK_WINDOWS = 600


def exposure_per_window(
    kind: str,
    threshold: float,
    rng,
    max_exposure: float = 1e7,
    mint_dilution: float = 0.5,
) -> float:
    """Sample the victim's effective-hammer exposure for one window: the
    scalar reference of :func:`repro.security.attack.exposure_windows`.

    ``max_exposure`` caps the unmitigated case at what a refresh window
    physically allows (~650K activations at DDR4 timings).
    """
    from repro.mitigations.para import para_probability
    from repro.mitigations.prac import quantize_pow2

    key = kind.strip().lower()
    if key == "none":
        return max_exposure
    if threshold < 1.0:
        raise ConfigurationError("threshold must be >= 1")
    if key == "graphene":
        return min(threshold / 2.0, max_exposure)
    if key == "prac":
        return min(float(quantize_pow2(threshold * 0.8)), max_exposure)
    if key == "para":
        p = para_probability(threshold)
        # Two aggressors: each paired hammer escapes with (1-p)^2.
        per_hammer = 1.0 - (1.0 - p) ** 2
        if per_hammer >= 1.0:
            return 1.0
        return min(float(rng.geometric(per_hammer)), max_exposure)
    if key == "mint":
        interval = quantize_pow2(threshold / 4.0)
        # The attacker dilutes the bank's stream so the single-entry
        # sampler picks a decoy with probability `mint_dilution`; the
        # victim survives a geometric number of RFM intervals, accruing
        # its (undiluted-equivalent) share of each.
        survive = min(max(mint_dilution, 0.0), 0.999)
        intervals = float(rng.geometric(1.0 - survive))
        per_interval = interval * (1.0 - survive) / 2.0
        return min(intervals * interval / 2.0 + per_interval, max_exposure)
    raise ConfigurationError(f"unknown mitigation kind {kind!r}")


def attack_window_loop(
    module,
    victim: int,
    config,
    kind: str,
    threshold: float,
    windows: int = 10_000,
    bank: int = 0,
    seed: int = 0,
    mint_dilution: float = 0.5,
):
    """The scalar reference of :func:`repro.security.attack.attack_escape`:
    one ``begin_measurement`` + ``current_threshold`` + scalar exposure
    draw per refresh window."""
    from repro.security.attack import AttackOutcome

    mapping = module.bank(bank).mapping
    process = module.fault_model.process(bank, mapping.to_physical(victim))
    condition = config.condition(module.timing)
    rng = derive(seed, "attack", module.module_id, bank, victim, kind)
    min_rdt = math.inf
    min_margin = math.inf
    for window in range(windows):
        process.begin_measurement(condition)
        rdt = process.current_threshold(condition)
        min_rdt = min(min_rdt, rdt)
        exposure = exposure_per_window(
            kind, threshold, rng, mint_dilution=mint_dilution
        )
        min_margin = min(min_margin, (rdt - exposure) / rdt)
        if exposure >= rdt:
            return AttackOutcome(
                kind, threshold, window + 1, True, window, min_rdt, min_margin
            )
    return AttackOutcome(
        kind, threshold, windows, False, None, min_rdt, min_margin
    )


def sequential_state(module, victim: int, config, bank: int = 0) -> tuple:
    """The victim's sequential chain under ``config``: occupancy, latent
    threshold, measurement count, and RNG position."""
    mapping = module.bank(bank).mapping
    process = module.fault_model.process(bank, mapping.to_physical(victim))
    state = process._state(config.condition(module.timing))
    rng_state = state.rng.bit_generator.state["state"]
    return (
        tuple(state.occupancy),
        state.latent_rdt,
        state.measurement_index,
        rng_state["state"],
        rng_state["inc"],
    )


def _attack_matrix(seed: int, fast: bool) -> tuple:
    """Consecutive profile-and-attack calls on one shared module,
    victim-major as in the security matrix, so each victim's chain carries
    over between calls; the chain state is fingerprinted after every
    call."""
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig
    from repro.core.rdt import FastRdtMeter, HammerSweep
    from repro.security.attack import profile_and_attack

    module = build_module("M1", seed=seed)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    victims = sorted(random.Random(seed + 9).sample(range(64, 192), 2))
    fingerprint = []
    for victim in victims:
        for kind in _ATTACK_KINDS:
            for n, margin in _ATTACK_SCENARIOS:
                if fast:
                    outcome = profile_and_attack(
                        module, victim, config, kind,
                        profile_measurements=n, margin=margin,
                        windows=_ATTACK_WINDOWS, seed=victim + seed,
                    )
                else:
                    # profile_and_attack's profiling, then the window loop.
                    meter = FastRdtMeter(module, 0)
                    sweep = HammerSweep.from_guess(
                        meter.guess_rdt(victim, config)
                    )
                    series = meter.measure_series(
                        victim, config, n, sweep=sweep, stream="security"
                    )
                    outcome = attack_window_loop(
                        module, victim, config, kind,
                        max(1.0, series.min * (1.0 - margin)),
                        windows=_ATTACK_WINDOWS, seed=victim + seed,
                    )
                fingerprint.append(
                    (outcome, sequential_state(module, victim, config))
                )
    return tuple(fingerprint)


def attack_oracle(seed: int) -> tuple:
    return _attack_matrix(seed, fast=False)


def attack_fast(seed: int) -> tuple:
    return _attack_matrix(seed, fast=True)


# ----------------------------------------------------------------------
# guardband: per-trial scalar rounds vs the trial-flip kernel
# ----------------------------------------------------------------------

_GUARDBAND_MARGINS = (0.01, 0.05, 0.3)
_GUARDBAND_TRIALS = 300


def margin_trial_loop(
    module,
    row: int,
    config,
    margins=(0.10, 0.20, 0.30, 0.40, 0.50),
    baseline_measurements: int = 5,
    trials: int = 10_000,
    bank: int = 0,
):
    """The scalar reference of
    :func:`repro.core.guardband.margin_bitflip_experiment`: one
    ``begin_measurement`` + ``trial_flips`` round per trial."""
    from repro.core.guardband import MarginBitflipResult

    mapping = module.bank(bank).mapping
    process = module.fault_model.process(bank, mapping.to_physical(row))
    condition = config.condition(module.timing)
    baseline = process.latent_series(
        condition, baseline_measurements, stream="guardband-baseline"
    )
    observed_min = float(baseline.min())
    results = []
    for margin in margins:
        hammer_count = int(observed_min * (1.0 - margin))
        result = MarginBitflipResult(
            module_id=module.module_id,
            bank=bank,
            row=row,
            margin=margin,
            hammer_count=hammer_count,
            trials=trials,
        )
        for _ in range(trials):
            process.begin_measurement(condition)
            flips = process.trial_flips(condition, float(hammer_count))
            if flips:
                result.flipping_trials += 1
                result.unique_flips.update(flips)
        results.append(result)
    return results


def margin_fingerprint(results) -> tuple:
    return tuple(
        (r.margin, r.hammer_count, r.trials, r.flipping_trials,
         tuple(sorted(r.unique_flips)))
        for r in results
    )


def _guardband_matrix(seed: int, fast: bool) -> tuple:
    """Fig. 16 calls on one shared module over both checkered patterns;
    the first row is visited twice per pattern, so its chain carries over
    between calls. The chain state is fingerprinted after every call."""
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig
    from repro.core.guardband import margin_bitflip_experiment
    from repro.core.patterns import CHECKERED1

    module = build_module("M1", seed=seed)
    rows = sorted(random.Random(seed + 10).sample(range(64, 192), 3))
    run = margin_bitflip_experiment if fast else margin_trial_loop
    fingerprint = []
    for pattern in (CHECKERED0, CHECKERED1):
        config = TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)
        for row in rows + rows[:1]:
            results = run(
                module, row, config, margins=_GUARDBAND_MARGINS,
                trials=_GUARDBAND_TRIALS,
            )
            fingerprint.append((
                margin_fingerprint(results),
                sequential_state(module, row, config),
            ))
    return tuple(fingerprint)


def guardband_oracle(seed: int) -> tuple:
    return _guardband_matrix(seed, fast=False)


def guardband_fast(seed: int) -> tuple:
    return _guardband_matrix(seed, fast=True)


# ----------------------------------------------------------------------
# min-RDT Monte Carlo: the paper's subset sampling behind Figs. 8 and 25
# ----------------------------------------------------------------------


def _subset_minima(data, n: int, iterations: int, rng):
    """Minima of ``iterations`` uniform N-subsets drawn without replacement.

    Ranking M iid uniform keys and keeping the n lowest-keyed positions is
    a uniform N-subset, so one batched ``random`` + ``argpartition`` per
    chunk replaces ``iterations`` ``rng.choice`` calls. Chunked to bound
    the key matrix at a few megabytes for long series.
    """
    from repro.errors import MeasurementError

    m = data.size
    if m == 0:
        raise MeasurementError("empty series")
    if not 1 <= n <= m:
        raise MeasurementError(f"subset size {n} must be in [1, {m}]")
    minima = np.empty(iterations)
    chunk = max(1, min(iterations, (1 << 21) // m))
    done = 0
    while done < iterations:
        batch = min(chunk, iterations - done)
        keys = rng.random((batch, m))
        picks = np.argpartition(keys, n - 1, axis=1)[:, :n]
        minima[done:done + batch] = data[picks].min(axis=1)
        done += batch
    return minima


def _valid_values(values):

    data = np.asarray(values, dtype=float)
    return data[~np.isnan(data)]


def probability_of_min_monte_carlo(
    values, n: int, iterations: int = 10_000, rng=None, within: float = 0.0
) -> float:
    """The paper's Monte Carlo estimate of
    :func:`repro.core.montecarlo.probability_of_min`."""
    from repro.errors import MeasurementError

    data = _valid_values(values)
    if rng is None:
        rng = np.random.default_rng(0)
    if data.size == 0:
        raise MeasurementError("empty series")
    threshold = data.min() * (1.0 + within)
    minima = _subset_minima(data, n, iterations, rng)
    return float((minima <= threshold).sum() / iterations)


def expected_normalized_min_monte_carlo(
    values, n: int, iterations: int = 10_000, rng=None
) -> float:
    """The paper's Monte Carlo estimate of
    :func:`repro.core.montecarlo.expected_normalized_min`."""

    data = _valid_values(values)
    if rng is None:
        rng = np.random.default_rng(0)
    minima = _subset_minima(data, n, iterations, rng)
    return float(minima.mean() / data.min())


# ----------------------------------------------------------------------
# victim: per-row scalar scan vs the memoized batched victim probe
# ----------------------------------------------------------------------

_VICTIM_CANDIDATES = (16, 64)


def scalar_victim_scan(module_id, seed, candidate_rows, threshold=None):
    """The per-row victim scan: scalar ``guess_rdt`` on every candidate,
    then Algorithm 1's find_victim over the rows sorted by guess."""
    from repro.analysis.figures import victim_threshold_for
    from repro.chips import build_module, spec
    from repro.core import CHECKERED0, FastRdtMeter, TestConfig
    from repro.core.rdt import find_victim

    device = spec(module_id)
    module = build_module(device, seed=seed)
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


def _victim_workload(seed: int):
    """A Sec. 4 catalog device and a small candidate block."""
    from repro.chips import FOUNDATIONAL_SPECS

    pick = random.Random(seed + 11)
    device = pick.choice(FOUNDATIONAL_SPECS)
    return device.module_id, pick.choice(_VICTIM_CANDIDATES)


def _victim_outcome(scan: Callable[[], int]):
    """The victim row, or the error text when no candidate qualifies."""
    from repro.errors import MeasurementError

    try:
        return scan()
    except MeasurementError as error:
        return str(error)


def victim_oracle(seed: int) -> tuple:
    module_id, rows = _victim_workload(seed)
    outcome = _victim_outcome(lambda: scalar_victim_scan(module_id, seed, rows))
    return (outcome, outcome)


def victim_fast(seed: int) -> tuple:
    """Two scans of one key, the first missing the memo, the second hitting
    it."""
    from repro.analysis import figures

    module_id, rows = _victim_workload(seed)
    figures._victim_probe.cache_clear()
    return tuple(
        _victim_outcome(
            lambda: figures.foundational_victim(module_id, seed, rows)[1]
        )
        for _ in range(2)
    )


# ----------------------------------------------------------------------

CASES: List[DifferentialCase] = [
    DifferentialCase("engine", engine_oracle, engine_fast),
    DifferentialCase("campaign", campaign_oracle, campaign_fast),
    DifferentialCase("memsim", memsim_oracle, memsim_fast),
    DifferentialCase("fastfaults", fastfaults_oracle, fastfaults_fast),
    DifferentialCase(
        "fastfaults-ddr5", fastfaults_ddr5_oracle, fastfaults_ddr5_fast
    ),
    DifferentialCase(
        "fastfaults-hbm2", fastfaults_hbm2_oracle, fastfaults_hbm2_fast
    ),
    DifferentialCase("long-series", long_series_oracle, long_series_fast),
    DifferentialCase("probe", probe_oracle, probe_fast),
    DifferentialCase("bender", bender_oracle, bender_fast),
    DifferentialCase("bender-ddr5", bender_ddr5_oracle, bender_ddr5_fast),
    DifferentialCase("bender-hbm2", bender_hbm2_oracle, bender_hbm2_fast),
    DifferentialCase(
        "checker-bender", checker_bender_oracle, checker_bender_fast
    ),
    DifferentialCase(
        "checker-memsim", checker_memsim_oracle, checker_memsim_fast
    ),
    DifferentialCase("ecc", ecc_oracle, ecc_fast),
    DifferentialCase("store", store_oracle, store_fast),
    DifferentialCase("attack", attack_oracle, attack_fast),
    DifferentialCase("guardband", guardband_oracle, guardband_fast),
    DifferentialCase("victim", victim_oracle, victim_fast),
]
