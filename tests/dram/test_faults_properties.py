"""Property-based tests on the VRD fault model's invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rng

from repro.dram.faults import (
    _GEOM_SEARCH_P,
    Condition,
    ModuleFaultModel,
    VrdModelParams,
    geometric_mirror_ok,
)
from repro.dram.fastfaults import (
    _attach_run_tables,
    _trap_column,
    _TrapPlan,
)
from repro.dram.traps import _MAX_P, _MIN_BATCH, _MIN_P, Trap, sample_occupancy_series
from tests.differential.harness import ReferenceRow
from tests.dram.test_fastfaults import word_route_column


def make_process(seed=7, params=None):
    params = params or VrdModelParams(mean_rdt=2000.0)
    return ModuleFaultModel(params, 8192, seed, "P").process(0, 3)


def make_reference(seed=7, params=None):
    """The specification of :func:`make_process`'s row."""
    params = params or VrdModelParams(mean_rdt=2000.0)
    return ReferenceRow(params, 8192, seed, ("P", 0, 3))


conditions = st.builds(
    Condition,
    pattern=st.sampled_from(
        ["rowstripe0", "rowstripe1", "checkered0", "checkered1", "other"]
    ),
    t_agg_on=st.floats(min_value=33.0, max_value=70_200.0),
    temperature=st.floats(min_value=20.0, max_value=95.0),
    wordline_voltage=st.floats(min_value=2.0, max_value=2.8),
)


@given(condition=conditions)
@settings(max_examples=80, deadline=None)
def test_factors_positive_and_margin_nonnegative(condition):
    process = make_process()
    factors = process.factors(condition)
    assert factors.rdt_factor > 0
    assert factors.depth_factor > 0
    assert factors.first_flip_margin >= 0


@given(condition=conditions)
@settings(max_examples=40, deadline=None)
def test_canonicalization_idempotent(condition):
    canon = condition.canonical()
    assert canon.canonical() == canon


@given(condition=conditions)
@settings(max_examples=30, deadline=None)
def test_latent_series_positive_and_reproducible(condition):
    process = make_process()
    a = process.latent_series(condition, 50)
    b = make_process().latent_series(condition, 50)
    assert np.all(a > 0)
    assert np.array_equal(a, b)


@given(
    t_short=st.floats(min_value=35.0, max_value=500.0),
    scale=st.floats(min_value=2.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_rowpress_monotone_in_on_time(t_short, scale):
    """Longer aggressor-on-time never raises the RDT factor."""
    process = make_process()
    short = process.factors(Condition("checkered0", t_short, 50.0))
    long = process.factors(Condition("checkered0", t_short * scale, 50.0))
    assert long.rdt_factor <= short.rdt_factor + 1e-12


@given(volts=st.floats(min_value=2.0, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_undervolting_monotone(volts):
    process = make_process()
    nominal = process.factors(Condition("checkered0", 35.0, 50.0, 2.5))
    under = process.factors(Condition("checkered0", 35.0, 50.0, volts))
    assert under.rdt_factor >= nominal.rdt_factor - 1e-12


@given(
    hammers=st.floats(min_value=0.0, max_value=1e6),
    condition=conditions,
)
@settings(max_examples=40, deadline=None)
def test_trial_flips_monotone_in_drive(hammers, condition):
    """More hammers never flip fewer cells (same latent state)."""
    process = make_process()
    process.begin_measurement(condition)
    fewer = set(process.trial_flips(condition, hammers))
    # Re-query at double the drive WITHOUT advancing the fault clock; the
    # jitter draws differ, but the deterministic weakest cell and all
    # no-jitter invariants must hold.
    more = set(process.trial_flips(condition, hammers * 2 + 1))
    threshold = process.current_threshold(condition)
    if hammers >= threshold:
        assert fewer  # at/above threshold, something must flip
        assert more
    assert len(more) >= (1 if hammers * 2 + 1 >= threshold else 0)


def test_weak_cell_margins_sorted_and_growing():
    margins = make_process()._bank.weak_cell_margins[0]
    assert margins[0] == 0.0
    assert np.all(np.diff(margins) >= 0)
    # Geometric growth: the last gap dwarfs the first nonzero one.
    gaps = np.diff(margins)
    nonzero = gaps[gaps > 0]
    if nonzero.size >= 2:
        assert nonzero[-1] > nonzero[0]


# ----------------------------------------------------------------------
# threshold_series: the hoisted chain walk vs the scalar pair
# ----------------------------------------------------------------------

#: Device parameters at their documented bounds: zero-trap rows (no
#: shallow, rare, or deep trap), every trap kind forced on, zero severity
#: and zero residual noise.
walk_params = st.builds(
    VrdModelParams,
    mean_rdt=st.just(2000.0),
    trap_count_mean=st.sampled_from([0.0, 3.0, 12.0]),
    rare_trap_prob=st.sampled_from([0.0, 0.85, 1.0]),
    big_trap_prob=st.sampled_from([0.0, 0.06, 1.0]),
    severity=st.sampled_from([0.0, 1.0, 3.0]),
    sigma_resid=st.sampled_from([0.0, 0.006]),
)

#: Transition probabilities at the constructor floors (1e-6 for fast and
#: deep traps, 1e-7 for the rare trap), near and at 1, and in between.
trap_probabilities = st.one_of(
    st.sampled_from([1e-7, 1e-6, 1.0 - 1e-9, 1.0]),
    st.floats(min_value=1e-7, max_value=1.0),
)

#: ``None`` keeps the constructor's traps; a list replaces them.
trap_overrides = st.one_of(
    st.none(),
    st.lists(
        st.builds(
            Trap,
            depth=st.floats(min_value=1e-4, max_value=0.99),
            p_occupy=trap_probabilities,
            p_release=trap_probabilities,
        ),
        max_size=4,
    ),
)


def _walk_pair(params, traps, seed):
    """A row's ``RowVrdProcess`` and its reference row, with the traps
    replaced by ``traps`` unless it is ``None``."""
    process = make_process(seed, params)
    reference = make_reference(seed, params)
    if traps is not None:
        process.traps = [_TrapPlan(t.depth, t.p_occupy, t.p_release) for t in traps]
        reference.traps = list(traps)
    return process, reference


def _chain_state(process, condition):
    state = process._state(condition)
    return (
        list(state.occupancy),
        state.latent_rdt,
        state.measurement_index,
        state.rng.bit_generator.state,
    )


def _scalar_pair(process, condition, exposures):
    thresholds = []
    for exposure in exposures:
        process.begin_measurement(condition)
        threshold = process.current_threshold(condition)
        thresholds.append(threshold)
        if exposure >= threshold:
            break
    return thresholds


@given(
    params=walk_params,
    traps=trap_overrides,
    windows=st.sampled_from([1, 2, 17, 300]),
    exposure_kind=st.sampled_from(["never", "at_once", "mixed"]),
    seed=st.integers(min_value=0, max_value=2**16),
    condition=conditions,
)
@settings(max_examples=60, deadline=None)
def test_threshold_series_matches_scalar_pair(
    params, traps, windows, exposure_kind, seed, condition
):
    if exposure_kind == "never":
        exposures = np.zeros(windows)
    elif exposure_kind == "at_once":
        exposures = np.full(windows, 1e12)
    else:
        exposures = np.random.default_rng(seed).uniform(0.0, 4000.0, windows)
    walk, reference = _walk_pair(params, traps, seed)
    # Two calls on the same chain: the second resumes where the first
    # stopped, as consecutive attacks on one victim do.
    for _ in range(2):
        thresholds = walk.threshold_series(condition, exposures)
        assert thresholds.tolist() == _scalar_pair(
            reference, condition, exposures
        )
        assert _chain_state(walk, condition) == _chain_state(
            reference, condition
        )
    if exposure_kind == "never":
        assert len(thresholds) == windows
    elif exposure_kind == "at_once":
        assert len(thresholds) == 1


def test_threshold_series_empty_exposures_leave_state_untouched():
    process = make_process()
    condition = Condition("checkered0", 35.0, 50.0)
    before = _chain_state(process, condition)
    assert process.threshold_series(condition, np.zeros(0)).shape == (0,)
    assert _chain_state(process, condition) == before


def test_threshold_series_flips_when_exposure_equals_threshold():
    """``exposure >= threshold`` flips, as in the scalar attack loop."""
    condition = Condition("checkered0", 35.0, 50.0)
    exact = _scalar_pair(make_reference(), condition, np.zeros(5))
    thresholds = make_process().threshold_series(condition, np.array(exact))
    assert thresholds.tolist() == exact[:1]


# ----------------------------------------------------------------------
# trial_flip_series: the array-resolved trial kernel vs the scalar pair
# ----------------------------------------------------------------------

#: ``walk_params`` plus the weak-cell axes the kernel resolves: a lone
#: (always weakest) cell or the default 16, and no, the calibrated, or a
#: wide per-trial jitter.
trial_params = st.tuples(
    walk_params,
    st.sampled_from([1, 16]),
    st.sampled_from([0.0, 0.02, 0.5]),
).map(
    lambda drawn: dataclasses.replace(
        drawn[0], weak_cells=drawn[1], cell_jitter_sigma=drawn[2]
    )
)


def _scalar_trials(process, condition, drive, n):
    bits = [int(bit) for bit in process.weak_cell_bits]
    flips = np.zeros((n, len(bits)), dtype=bool)
    for trial in range(n):
        process.begin_measurement(condition)
        for bit in process.trial_flips(condition, drive):
            flips[trial, bits.index(bit)] = True
    return flips


@given(
    params=trial_params,
    traps=trap_overrides,
    n=st.sampled_from([0, 1, 2, 17, 300]),
    drive_kind=st.sampled_from(["zero", "huge", "near", "second"]),
    seed=st.integers(min_value=0, max_value=2**16),
    condition=conditions,
)
@settings(max_examples=60, deadline=None)
def test_trial_flip_series_matches_scalar_pair(
    params, traps, n, drive_kind, seed, condition
):
    kernel, reference = _walk_pair(params, traps, seed)
    if drive_kind == "zero":
        drive = 0.0
    elif drive_kind == "huge":
        drive = 1e12
    else:
        # About 1.1x the row's trap-free threshold, so the weakest cell
        # flips on most trials; or just past the second-weakest cell's
        # unjittered threshold, so its jitter decides.
        margins = np.sort(reference._cell_margins_for(condition.canonical().pattern))
        level = reference.base_rdt * reference.factors(condition).rdt_factor
        if drive_kind == "near" or margins.size == 1:
            drive = 1.1 * level
        else:
            drive = 1.02 * level * (1.0 + margins[1])
    # Two calls on the same chain: the second resumes where the first
    # stopped, as consecutive margins on one row do.
    for _ in range(2):
        flips = kernel.trial_flip_series(condition, drive, n)
        assert flips.shape == (n, params.weak_cells)
        assert np.array_equal(
            flips, _scalar_trials(reference, condition, drive, n)
        )
        assert _chain_state(kernel, condition) == _chain_state(
            reference, condition
        )
    if drive_kind == "huge":
        assert flips.all()
    elif drive_kind == "zero":
        assert not flips.any()


def test_walks_add_trap_terms_left_to_right():
    """Twelve always-occupied traps whose log terms sum differently
    pairwise (numpy's ``sum``) than left to right (the scalar ``+=``):
    both walks follow the scalar order."""
    condition = Condition("checkered0", 35.0, 50.0)
    depths = [0.773, 0.04, 0.659, 0.166, 0.778, 0.492, 0.277, 0.386,
              0.035, 0.121, 0.607, 0.586]
    traps = [Trap(depth=d, p_occupy=1.0, p_release=1e-9) for d in depths]
    walk, reference = _walk_pair(VrdModelParams(mean_rdt=2000.0), traps, 7)
    factor = reference.factors(condition).depth_factor
    terms = [math.log1p(-min(d * factor, 0.95)) for d in depths]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert left_to_right != float(np.sum(np.array([0.0] + terms)))
    exposures = np.zeros(50)
    assert walk.threshold_series(condition, exposures).tolist() == (
        _scalar_pair(reference, condition, exposures)
    )
    assert np.array_equal(
        walk.trial_flip_series(condition, 1e12, 20),
        _scalar_trials(reference, condition, 1e12, 20),
    )
    assert _chain_state(walk, condition) == _chain_state(reference, condition)


def test_walks_match_scalar_pair_on_the_native_draw_route(monkeypatch):
    """Both walks with the word mirror's probe forced false (numpy's own
    per-step calls draw the blocks), bit-identical to the scalar pair."""
    monkeypatch.setattr(repro.rng, "_WORD_MIRROR_OK", False)
    test_threshold_series_matches_scalar_pair()
    test_trial_flip_series_matches_scalar_pair()


# ----------------------------------------------------------------------
# Series samplers: the packed mirrors vs sample_occupancy_series
# ----------------------------------------------------------------------

#: Transition probabilities at and past both clamps (1e-12 and 1.0 are
#: clamped to ``_MIN_P``/``_MAX_P``), on both sides of numpy's geometric
#: branch point (inversion below 1/3, search at and above it), and free.
sampler_probabilities = st.one_of(
    st.sampled_from([
        1e-12, _MIN_P, 1e-6, float(np.nextafter(_GEOM_SEARCH_P, 0.0)),
        _GEOM_SEARCH_P, 0.5, _MAX_P, 1.0,
    ]),
    st.floats(min_value=1e-12, max_value=1.0),
)


@pytest.mark.skipif(
    not geometric_mirror_ok(),
    reason="numpy's geometric sampler is not mirrored on this platform",
)
@given(
    trap=st.builds(
        Trap,
        depth=st.just(0.2),
        p_occupy=sampler_probabilities,
        p_release=sampler_probabilities,
    ),
    n=st.sampled_from([0, 1, 7, 16, 17, 300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_series_samplers_match_reference(trap, n, seed):
    """``_trap_column`` (with and without run tables) and, for a short
    series, the word route draw exactly what ``sample_occupancy_series``
    draws: the same column and the same generator state afterwards."""
    reference_rng = np.random.default_rng(seed)
    reference = sample_occupancy_series(trap, n, reference_rng).tolist()
    for tables in (False, True):
        plan = _TrapPlan(trap.depth, trap.p_occupy, trap.p_release)
        if tables:
            _attach_run_tables([plan])
        rng = np.random.default_rng(seed)
        column = _trap_column(plan, n, rng)
        assert column.tolist() == reference, tables
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    if 0 < n <= _MIN_BATCH:
        column, rng = word_route_column(trap, n, seed)
        assert column.tolist() == reference
        assert rng.bit_generator.state == reference_rng.bit_generator.state
