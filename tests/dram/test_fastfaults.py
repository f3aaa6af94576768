"""Tests for the packed device model (repro.dram.fastfaults).

The harness reference row (:class:`tests.differential.harness
.ReferenceRow`) is the specification; every packed query must be
*bit-identical* to it — same RNG draws in the same order, same floats
out — across conditions, streams, both geometric-sampler routes
(searchsorted run tables and the direct ``rng.geometric`` fallback) and
both short-series routes (raw words and the general route).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.rng
from repro.chips.catalog import build_module
from repro.dram import fastfaults, faults
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.faults import _GEOM_SEARCH_P, Condition, ModuleFaultModel, VrdModelParams
from repro.dram.fastfaults import (
    BankVrdState,
    _attach_run_tables,
    _short_columns,
    _short_constants,
    _ShortLayout,
    _trap_column,
    _TrapPlan,
)
from repro.dram.traps import _MAX_P, _MIN_BATCH, _MIN_P, Trap, sample_occupancy_series
from repro.errors import ConfigurationError
from repro.rng import child_seed, derive
from tests.differential.harness import ReferenceRow, reference_occupancy_series

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
    return BankVrdState(params, ROW_BITS, SEED, MODULE, BANK, rows)


def make_reference(row: int, params=None) -> ReferenceRow:
    params = params or make_params()
    return ReferenceRow(params, ROW_BITS, SEED, (MODULE, BANK, row))


def word_route_column(trap: Trap, n: int, seed: int):
    """One trap's column through the short-series word route
    (:func:`_short_columns` on a one-trap row), and the generator that
    route leaves: ``PCG64(seed)`` advanced past the words the trap used."""
    constants = _short_constants(np.array([trap.p_occupy]), np.array([trap.p_release]))
    layout = _ShortLayout(n, np.array([1]), constants)
    occupancy, _, shifts, failed = _short_columns(layout, [seed])
    assert not failed
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(int(layout.ends[0] + shifts[0]))
    return occupancy[0], np.random.Generator(bit_generator)


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
            reference = make_reference(row).latent_series(
                condition, n, stream=stream
            )
            np.testing.assert_array_equal(bulk[index], reference)

    def test_row_subset_and_single_row(self):
        state = make_state()
        subset = [ROWS[5], ROWS[1], ROWS[5]]
        bulk = state.latent_series_bulk(REF, 64, rows=subset)
        assert bulk.shape == (3, 64)
        for index, row in enumerate(subset):
            reference = make_reference(row).latent_series(REF, 64)
            np.testing.assert_array_equal(bulk[index], reference)
            np.testing.assert_array_equal(
                state.latent_series_bulk(REF, 64, rows=[row])[0], reference
            )

    def test_guess_means_match_scalar_guess_stream(self):
        state = make_state()
        means = state.guess_means(REF, repeats=10)
        for index, row in enumerate(ROWS):
            series = make_reference(row).latent_series(REF, 10, stream="guess")
            assert means[index] == float(series.mean())

    def test_empty_and_single_measurement_series(self):
        """Single measurements are one of ``test_matches_scalar_process``'s
        lengths."""
        state = make_state()
        assert state.latent_series_bulk(REF, 0).shape == (len(ROWS), 0)

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
            reference = make_reference(row, params=params).latent_series(
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
        """The word route's column, and the words it used, for one trap;
        a series past one batch's reach (``n = 40``) takes the table
        route instead, as a packed state's query does."""
        if n <= _MIN_BATCH:
            fast, rng = word_route_column(trap, n, child_seed(5, "short", n))
        else:
            plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
            _attach_run_tables([plan])
            rng = derive(5, "short", n)
            fast = _trap_column(plan, n, rng)
        ref_rng = derive(5, "short", n)
        reference = sample_occupancy_series(trap, n, ref_rng)
        np.testing.assert_array_equal(fast, reference)
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
                bulk[index], make_reference(row).latent_series(REF, 150)
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


#: Transition probabilities at and past both clamps (1e-12 and 1.0 clamp
#: to ``_MIN_P``/``_MAX_P``), on both sides of numpy's geometric branch
#: point (inversion below 1/3, search at and above it), and free.
word_route_probabilities = st.one_of(
    st.sampled_from([
        1e-12, _MIN_P, 1e-6, float(np.nextafter(_GEOM_SEARCH_P, 0.0)),
        _GEOM_SEARCH_P, 0.5, _MAX_P, 1.0,
    ]),
    st.floats(min_value=1e-12, max_value=1.0),
)


def _set_trap_probabilities(state, references, probabilities):
    """Give the packed rows and their reference rows the same trap
    transition probabilities, cycling through ``probabilities``."""
    cycle = iter(probabilities * (len(state._trap_depths) // len(probabilities) + 1))
    occupy, release = [], []
    for i, row in enumerate(state.rows):
        traps = references[row].traps
        for j in range(state._trap_starts[i], state._trap_starts[i + 1]):
            p_occupy, p_release = next(cycle)
            occupy.append(p_occupy)
            release.append(p_release)
            k = j - state._trap_starts[i]
            traps[k] = Trap(traps[k].depth, p_occupy, p_release)
    state._trap_occupy = np.array(occupy)
    state._trap_release = np.array(release)


class TestWordRoute:
    """The short-series route (``0 < n <= _MIN_BATCH``) from raw words
    against the reference row, and against the general route it falls
    back to."""

    @given(
        n=st.integers(1, _MIN_BATCH),
        trap_count_mean=st.sampled_from([0.0, 0.5, 9.0]),
        probabilities=st.lists(
            st.tuples(word_route_probabilities, word_route_probabilities),
            max_size=12,
        ),
        query=st.lists(st.sampled_from(ROWS[:6]), min_size=1, max_size=9),
        stream=st.sampled_from(["series", "guess"]),
    )
    @example(n=1, trap_count_mean=0.0, probabilities=[], query=ROWS[:6], stream="guess")
    @example(
        n=16, trap_count_mean=9.0, probabilities=[(1e-12, 1.0), (1.0, 1e-12)],
        query=[ROWS[3], ROWS[0], ROWS[3]], stream="series",
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_both_routes(
        self, n, trap_count_mean, probabilities, query, stream
    ):
        """Clamped and branch-edge probabilities, zero-trap rows and
        repeated, unsorted row subsets: the word route and, with the word
        mirror's probe forced false, the general route."""
        params = make_params(
            trap_count_mean=trap_count_mean, rare_trap_prob=0.5, big_trap_prob=0.5
        )
        state = make_state(params=params, rows=ROWS[:6])
        references = {row: make_reference(row, params=params) for row in ROWS[:6]}
        if probabilities:
            _set_trap_probabilities(state, references, probabilities)
        expected = [
            references[row].latent_series(REF, n, stream=stream) for row in query
        ]
        words = state.latent_series_bulk(REF, n, stream=stream, rows=query)
        with mock.patch.object(repro.rng, "_WORD_MIRROR_OK", False):
            general = state.latent_series_bulk(REF, n, stream=stream, rows=query)
        expected = np.array(expected).view(np.uint64)
        for got in (words, general):
            np.testing.assert_array_equal(got.view(np.uint64), expected)

    def test_serves_every_row_from_words(self):
        """No catalog-sized row needs the general route: every row's
        draws fit its block."""
        state = make_state(rows=list(range(512)))
        with mock.patch.object(
            BankVrdState, "_row_blocks", side_effect=AssertionError("general route")
        ):
            state.guess_means(REF)

    def test_rows_past_their_block_take_the_general_route(self, monkeypatch):
        """Without slack, every row with an off-path draw runs past its
        block and is served by the general route, bit for bit."""
        monkeypatch.setattr(fastfaults, "_ROW_SLACK", 0)
        state = make_state()
        calls = []
        fill_row = BankVrdState._fill_row
        monkeypatch.setattr(
            BankVrdState, "_fill_row",
            lambda self, *args: calls.append(args[1]) or fill_row(self, *args),
        )
        bulk = state.latent_series_bulk(REF, 16)
        assert 0 < len(calls) < len(ROWS)
        for index, row in enumerate(ROWS):
            np.testing.assert_array_equal(
                bulk[index], make_reference(row).latent_series(REF, 16)
            )

    def test_chunks_join_bit_for_bit(self, monkeypatch):
        state = make_state()
        whole = state.guess_means(REF)
        monkeypatch.setattr(fastfaults, "_PROBE_CHUNK", 3)
        np.testing.assert_array_equal(state.guess_means(REF), whole)


def test_probe_memory_is_bounded_by_its_chunk():
    """A whole bank's probe query (the 4,096 rows of a catalog device's
    compact bank) holds one chunk's words and traps x draws temporaries
    at a time: its traced peak stays a few MB above its O(rows) inputs
    and output, where the bank's word block alone would take about 8 MB
    and its temporaries several times that."""
    module = build_module("M1")
    rows = list(range(module.geometry.n_rows))
    state = module.fault_model.bank_state(0, rows)
    state.guess_means(REF, rows=rows[:8])  # the probes and factors, once
    tracemalloc.start()
    try:
        state.guess_means(REF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def _row_view(state, row, query, condition):
    """Everything ``state`` holds and emits for ``row``: its constructor
    columns at every index it occupies, then its series and guess mean
    from a query of the rows ``query``."""
    columns = [
        (
            state.base_rdt[i], state.sigma_resid[i], state.uncharged_penalty[i],
            state._taggon_depth_slope[i], state._temp_depth_coeff[i],
            tuple(values[i] for values in state._pattern_depth.values()),
            tuple(values[i] for values in state._pattern_rdt.values()),
            state.weak_cell_bits[i].tolist(), state.weak_cell_margins[i].tolist(),
            state.weak_cell_true[i].tolist(),
            [(t.depth, t.p_occupy, t.p_release) for t in state._row_plans[i]],
        )
        for i, packed in enumerate(state.rows) if packed == row
    ]
    k = query.index(row)
    outputs = [
        state.latent_series_bulk(condition, n, stream=stream, rows=query)[k].tolist()
        for n in (10, 40) for stream in ("series", "guess")
    ]
    return columns, outputs + [state.guess_means(condition, rows=query)[k]]


@given(row=st.integers(0, 4095), pick=st.randoms(use_true_random=False))
@settings(max_examples=6, deadline=None)
def test_row_does_not_depend_on_its_batch(row, pick):
    """A row's constructor columns and outputs are the same alone, in a
    shuffled 64-row batch, duplicated, and as a subset of a cached state."""
    condition = CONDITIONS[3]
    others = pick.sample([other for other in range(4096) if other != row], 63)
    batch = others + [row]
    pick.shuffle(batch)
    alone = _row_view(make_state(rows=[row]), row, [row], condition)
    assert _row_view(make_state(rows=batch), row, [row], condition) == alone
    (column,), outputs = alone
    duplicated = make_state(rows=[row, others[0], row])
    assert _row_view(duplicated, row, [row], condition) == ([column] * 2, outputs)
    model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
    cached = model.bank_state(BANK, batch)
    subset = [others[1], row, others[2]]
    assert _row_view(cached, row, subset, condition) == alone


class TestModuleFacade:
    def test_latent_series_bank_matches_processes(self):
        model = ModuleFaultModel(make_params(), ROW_BITS, SEED, MODULE)
        bulk = model.latent_series_bank(BANK, ROWS, REF, 120)
        for index, row in enumerate(ROWS):
            reference = make_reference(row).latent_series(REF, 120)
            np.testing.assert_array_equal(bulk[index], reference)
            process = model.process(BANK, row)
            np.testing.assert_array_equal(process.latent_series(REF, 120), reference)

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
            series = make_reference(row).latent_series(REF, 10, stream="guess")
            assert guess == float(series.mean())


@pytest.mark.parametrize(
    "layout",
    [
        CellLayout(CellLayoutKind.MIXED),
        CellLayout(CellLayoutKind.ROW_BLOCKS, block_rows=4),
        CellLayout(CellLayoutKind.ALTERNATE_ROWS),
        CellLayout(CellLayoutKind.ALL_TRUE),
    ],
    ids=["mixed", "row-blocks", "alternate-rows", "all-true"],
)
def test_weak_cell_polarity_matches_process(layout):
    params = make_params()
    state = BankVrdState(
        params, ROW_BITS, SEED, MODULE, BANK, ROWS, cell_layout=layout
    )
    condition = Condition("rowstripe1", 35.0, 50.0)
    means = state.guess_means(condition)
    for index, row in enumerate(ROWS):
        reference = ReferenceRow(
            params, ROW_BITS, SEED, (MODULE, BANK, row),
            true_cell_lookup=layout.bit_is_true_cell,
        )
        np.testing.assert_array_equal(
            state.weak_cell_true[index], reference.weak_cell_true
        )
        series = reference.latent_series(condition, 10, stream="guess")
        assert means[index] == float(series.mean())
