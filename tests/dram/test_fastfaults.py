"""Tests for the packed device-model fast path (repro.dram.fastfaults).

The scalar :class:`~repro.dram.faults.RowVrdProcess` is the specification;
every fast-path query must be *bit-identical* to it — same RNG draws in
the same order, same floats out — across conditions, streams, and both
geometric-sampler routes (searchsorted run tables and the direct
``rng.geometric`` fallback).
"""

import numpy as np
import pytest

from repro.dram import faults, fastfaults, traps
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.faults import (
    Condition,
    ModuleFaultModel,
    RowVrdProcess,
    VrdModelParams,
)
from repro.dram.fastfaults import (
    BankVrdState,
    _attach_run_tables,
    _short_column,
    _trap_column,
    _TrapPlan,
    build_bank_state,
)
from repro.dram.traps import Trap, sample_occupancy_series
from repro.errors import ConfigurationError
from repro.rng import derive
from tests.differential.harness import reference_occupancy_series

ROW_BITS = 8192
SEED = 11
MODULE = "FF"
BANK = 2
ROWS = list(range(0, 48, 3))

REF = Condition("checkered0", 35.0, 50.0)
CONDITIONS = [
    REF,
    Condition("rowstripe1", 35.0, 50.0),
    Condition("custom", 35.0, 50.0),  # canonicalizes to "other"
    Condition("checkered0", 7.2, 85.0),
    Condition("checkered1", 120.0, 30.0),
    Condition("checkered0", 35.0, 50.0, wordline_voltage=2.2),
]


def make_params(**overrides) -> VrdModelParams:
    return VrdModelParams(mean_rdt=4000.0, **overrides)


def make_state(params=None, rows=ROWS) -> BankVrdState:
    params = params or make_params()
    return build_bank_state(params, ROW_BITS, SEED, MODULE, BANK, rows)


def make_process(row: int, params=None) -> RowVrdProcess:
    params = params or make_params()
    return RowVrdProcess(params, ROW_BITS, SEED, (MODULE, BANK, row))


class TestLatentSeriesBitIdentity:
    @pytest.fixture(autouse=True, params=["mirror", "fallback"])
    def mirror(self, request, monkeypatch):
        """Run every case with the geometric mirror on and forced off."""
        if request.param == "fallback":
            monkeypatch.setattr(faults, "_MIRROR_OK", False)
        return request.param

    # Both sides of the short-series limit (traps._MIN_BATCH == 16), plus
    # a long series that needs the run tables.
    @pytest.mark.parametrize("n", [1, 10, 16, 17, 200])
    @pytest.mark.parametrize("condition", CONDITIONS)
    @pytest.mark.parametrize("stream", ["series", "guess"])
    def test_matches_scalar_process(self, condition, stream, n):
        state = make_state()
        bulk = state.latent_series_bulk(condition, n, stream=stream)
        for index, row in enumerate(ROWS):
            reference = make_process(row).latent_series(
                condition, n, stream=stream
            )
            np.testing.assert_array_equal(bulk[index], reference)

    def test_row_subset_and_single_row(self):
        state = make_state()
        subset = [ROWS[5], ROWS[1], ROWS[5]]
        bulk = state.latent_series_bulk(REF, 64, rows=subset)
        assert bulk.shape == (3, 64)
        np.testing.assert_array_equal(bulk[0], bulk[2])
        for index, row in enumerate(subset):
            np.testing.assert_array_equal(
                bulk[index], state.latent_series(row, REF, 64)
            )
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 64)
            )

    def test_guess_means_match_scalar_guess_stream(self):
        state = make_state()
        means = state.guess_means(REF, repeats=10)
        for index, row in enumerate(ROWS):
            series = make_process(row).latent_series(REF, 10, stream="guess")
            assert means[index] == float(series.mean())

    def test_empty_and_single_measurement_series(self):
        state = make_state()
        assert state.latent_series_bulk(REF, 0).shape == (len(ROWS), 0)
        bulk = state.latent_series_bulk(REF, 1)
        for index, row in enumerate(ROWS):
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 1)
            )

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            make_state().latent_series_bulk(REF, -1)

    def test_zero_trap_rows(self):
        params = make_params(
            trap_count_mean=0.0, rare_trap_prob=0.0, big_trap_prob=0.0
        )
        state = make_state(params=params)
        bulk = state.latent_series_bulk(REF, 100)
        for index, row in enumerate(ROWS):
            reference = make_process(row, params=params).latent_series(
                REF, 100
            )
            np.testing.assert_array_equal(bulk[index], reference)


class TestTrapColumnMirror:
    # Edge cases around the traps module's probability clamps plus one
    # probability on each geometric-sampler branch.
    EDGE_TRAPS = [
        Trap(depth=0.2, p_occupy=1e-9, p_release=1.0),  # at _MIN_P / _MAX_P
        Trap(depth=0.2, p_occupy=1e-12, p_release=1.0),  # clamped up/down
        Trap(depth=0.2, p_occupy=1.0, p_release=1.0),  # both at _MAX_P
        Trap(depth=0.2, p_occupy=0.5, p_release=0.7),  # search branch
        Trap(depth=0.2, p_occupy=0.01, p_release=0.02),  # inversion branch
        Trap(depth=0.2, p_occupy=0.9, p_release=0.05),  # mixed branches
    ]

    @pytest.mark.parametrize("trap", EDGE_TRAPS)
    @pytest.mark.parametrize("n", [0, 1, 5, 500, 150_001])
    def test_with_run_tables(self, trap, n):
        """At ``n = 150_001`` a batch spans several sub-draws."""
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        _attach_run_tables([plan])
        rng = derive(3, "trapcol", n)
        fast = _trap_column(plan, n, rng)
        ref_rng = derive(3, "trapcol", n)
        reference = reference_occupancy_series(trap, n, ref_rng)
        np.testing.assert_array_equal(fast, reference)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("trap", EDGE_TRAPS)
    @pytest.mark.parametrize("n", [1, 7, 16, 40])
    def test_short_column(self, trap, n):
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        rng = derive(5, "short", n)
        fast = _short_column(plan, n, rng)
        ref_rng = derive(5, "short", n)
        reference = sample_occupancy_series(trap, n, ref_rng)
        assert fast == reference.tolist()
        # The whole batch is consumed, exactly as the reference draws it.
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("trap", EDGE_TRAPS)
    def test_direct_route_without_tables(self, trap):
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        assert plan.table_occ is None and plan.table_rel is None
        fast = _trap_column(plan, 300, derive(4, "direct"))
        reference = sample_occupancy_series(trap, 300, derive(4, "direct"))
        np.testing.assert_array_equal(fast, reference)


class TestMirrorGate:
    def test_forced_fallback_still_bit_identical(self, monkeypatch):
        monkeypatch.setattr(faults, "_MIRROR_OK", False)
        state = make_state()
        assert all(
            plan.table_occ is None
            for plans in state._row_plans
            for plan in plans
        )
        bulk = state.latent_series_bulk(REF, 150)
        for index, row in enumerate(ROWS):
            np.testing.assert_array_equal(
                bulk[index], make_process(row).latent_series(REF, 150)
            )

    def test_probe_result_cached_per_process(self, monkeypatch):
        monkeypatch.setattr(faults, "_MIRROR_OK", None)
        first = faults.geometric_mirror_ok()
        assert faults._MIRROR_OK is first
        assert faults.geometric_mirror_ok() is first

    def test_run_tables_built_on_first_long_query(self):
        state = make_state()
        plans = [plan for row in state._row_plans for plan in row]
        state.guess_means(REF, repeats=10)
        assert all(plan.table_occ is None for plan in plans)
        state.latent_series_bulk(REF, 17)
        assert any(plan.table_occ is not None for plan in plans)


class TestModuleFacade:
    def test_latent_series_bank_matches_processes(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        bulk = model.latent_series_bank(BANK, ROWS, REF, 120)
        for index, row in enumerate(ROWS):
            reference = model.process(BANK, row).latent_series(REF, 120)
            np.testing.assert_array_equal(bulk[index], reference)

    def test_bank_state_cached_by_rows_tuple(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        first = model.bank_state(BANK, ROWS)
        assert model.bank_state(BANK, ROWS) is first
        other = model.bank_state(BANK, ROWS[:4])
        assert other is not first
        assert model.bank_state(BANK, ROWS[:4]) is other

    def test_probe_reads_cached_state_without_evicting_it(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        state = model.bank_state(BANK, ROWS)
        np.testing.assert_array_equal(
            model.probe_guess_means(BANK, ROWS, REF), state.guess_means(REF)
        )
        others = [1, 2, 4000]
        guesses = model.probe_guess_means(BANK, others, REF)
        assert model.bank_state(BANK, ROWS) is state
        for guess, row in zip(guesses, others):
            series = model.process(BANK, row).latent_series(
                REF, 10, stream="guess"
            )
            assert guess == float(series.mean())


@pytest.mark.parametrize(
    "lookup",
    [
        CellLayout(CellLayoutKind.MIXED).bit_is_true_cell,
        CellLayout(CellLayoutKind.ROW_BLOCKS, block_rows=4).bit_is_true_cell,
        CellLayout(CellLayoutKind.ALTERNATE_ROWS).bit_is_true_cell,
        CellLayout(CellLayoutKind.ALL_TRUE).bit_is_true_cell,
        lambda row, bit: (bit + row) % 3 == 0,  # any other callable
    ],
    ids=["mixed", "row-blocks", "alternate-rows", "all-true", "callable"],
)
def test_weak_cell_polarity_matches_process(lookup):
    params = make_params()
    state = build_bank_state(
        params, ROW_BITS, SEED, MODULE, BANK, ROWS, true_cell_lookup=lookup
    )
    condition = Condition("rowstripe1", 35.0, 50.0)
    means = state.guess_means(condition)
    for index, row in enumerate(ROWS):
        process = RowVrdProcess(
            params, ROW_BITS, SEED, (MODULE, BANK, row), true_cell_lookup=lookup
        )
        np.testing.assert_array_equal(
            state.weak_cell_true[index], process.weak_cell_true
        )
        series = process.latent_series(condition, 10, stream="guess")
        assert means[index] == float(series.mean())
