"""Tests for the charge-trap random-telegraph-noise model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.traps import (
    SERIES_BLOCK,
    Trap,
    latent_blocks,
    log_depth_terms,
    new_occupancy,
    sample_occupancy,
    sample_occupancy_series,
    trap_outputs,
)
from repro.errors import ConfigurationError
from tests.differential.harness import reference_occupancy_series


def test_trap_validation():
    with pytest.raises(ConfigurationError):
        Trap(depth=0.0, p_occupy=0.5, p_release=0.5)
    with pytest.raises(ConfigurationError):
        Trap(depth=0.5, p_occupy=0.0, p_release=0.5)
    with pytest.raises(ConfigurationError):
        Trap(depth=1.5, p_occupy=0.5, p_release=0.5)


def test_stationary_occupancy():
    trap = Trap(depth=0.1, p_occupy=0.2, p_release=0.8)
    assert trap.stationary_occupancy == pytest.approx(0.2)


def test_switch_rate():
    trap = Trap(depth=0.1, p_occupy=0.5, p_release=0.5)
    # Symmetric fast trap: switches half the time.
    assert trap.switch_rate == pytest.approx(0.5)


def test_series_matches_stationary_distribution():
    trap = Trap(depth=0.1, p_occupy=0.3, p_release=0.6)
    rng = np.random.default_rng(0)
    series = sample_occupancy_series(trap, 200_000, rng)
    assert series.mean() == pytest.approx(trap.stationary_occupancy, abs=0.02)


def test_series_run_lengths_geometric():
    trap = Trap(depth=0.1, p_occupy=0.5, p_release=0.25)
    rng = np.random.default_rng(1)
    series = sample_occupancy_series(trap, 100_000, rng)
    occupied = series.astype(int)
    # Mean sojourn length in occupied state approx 1/p_release.
    changes = np.nonzero(np.diff(occupied))[0]
    runs = np.diff(np.concatenate(([0], changes + 1, [len(occupied)])))
    states = occupied[np.concatenate(([0], changes + 1))]
    occupied_runs = runs[states == 1]
    assert occupied_runs.mean() == pytest.approx(1 / 0.25, rel=0.1)


def test_series_matches_sequential_stepping_distribution():
    """The vectorized run-length sampler and the per-step walker must be
    the same stochastic process (compare switch rates and occupancy)."""
    trap = Trap(depth=0.1, p_occupy=0.4, p_release=0.3)
    rng = np.random.default_rng(2)
    fast = sample_occupancy_series(trap, 50_000, rng)

    state = trap.sample_initial(rng)
    slow = np.empty(50_000, dtype=bool)
    for index in range(50_000):
        state = trap.step(state, rng)
        slow[index] = state

    assert fast.mean() == pytest.approx(slow.mean(), abs=0.03)
    fast_switch = np.mean(fast[1:] != fast[:-1])
    slow_switch = np.mean(slow[1:] != slow[:-1])
    assert fast_switch == pytest.approx(slow_switch, abs=0.03)


@given(
    p_occupy=st.floats(min_value=0.01, max_value=1.0),
    p_release=st.floats(min_value=0.01, max_value=1.0),
    n=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=50, deadline=None)
def test_series_length_property(p_occupy, p_release, n):
    trap = Trap(depth=0.2, p_occupy=p_occupy, p_release=p_release)
    series = sample_occupancy_series(trap, n, np.random.default_rng(3))
    assert series.shape == (n,)
    assert series.dtype == bool


def _occupancy(traps, n, rng):
    """Every trap's occupancy, in the form :func:`latent_blocks` takes."""
    occupancy = new_occupancy(len(traps), n)
    for trap, out in zip(traps, trap_outputs(occupancy)):
        sample_occupancy(trap, n, rng, out)
    return occupancy


def multiplier_series(traps, depth_factor, n, rng):
    """The RDT multiplier per step: the latent blocks at level 1 with no
    residual (``normal(0, 0)`` draws zeros)."""
    log_terms = log_depth_terms(np.array([t.depth for t in traps]), depth_factor)
    blocks = latent_blocks(_occupancy(traps, n, rng), n, log_terms, 1.0, 0.0, rng)
    return np.concatenate([values for _, values in blocks] or [np.ones(0)])


def test_occupancy_matrix_shape():
    traps = [Trap(0.1, 0.5, 0.5), Trap(0.2, 0.3, 0.7)]
    # One block: a (steps, traps) bool matrix; longer: packed rows.
    assert _occupancy(traps, 100, np.random.default_rng(0)).shape == (100, 2)
    assert _occupancy([], 100, np.random.default_rng(0)).shape == (100, 0)
    n = SERIES_BLOCK + 2
    assert _occupancy(traps, n, np.random.default_rng(0)).shape == (2, (n + 7) // 8)


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("trap", [
    Trap(0.1, 1.0, 1.0),  # one-step runs: batches of several sub-draws
    Trap(0.1, 0.4, 0.6),
    Trap(0.1, 0.02, 0.05),  # geometric inversion branch
    Trap(0.1, 1e-6, 1e-5),  # runs spanning many packing windows
])
def test_long_series_matches_one_shot_sampler(trap, packed):
    """Into bools or packed bits, the sampler draws what whole batches
    expanded with ``np.repeat`` draw, past the sub-draw and window sizes."""
    n = 200_003
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    if packed:
        bits = sample_occupancy(trap, n, rng, np.empty((n + 7) // 8, np.uint8))
        series = np.unpackbits(bits, count=n).view(bool)
    else:
        series = sample_occupancy_series(trap, n, rng)
    assert np.array_equal(series, reference_occupancy_series(trap, n, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_latent_blocks_cover_the_series():
    traps = [Trap(0.1, 0.5, 0.5)]
    n = 2 * SERIES_BLOCK + 1
    rng = np.random.default_rng(0)
    blocks = latent_blocks(
        _occupancy(traps, n, rng), n, log_depth_terms(np.array([0.1]), 1.0),
        1.0, 0.0, rng,
    )
    # The one-row tail joins the last full block.
    assert [(start, values.size) for start, values in blocks] == [
        (0, SERIES_BLOCK), (SERIES_BLOCK, SERIES_BLOCK + 1),
    ]


def test_multiplier_series_bounds():
    traps = [Trap(0.3, 0.5, 0.5), Trap(0.2, 0.5, 0.5)]
    mult = multiplier_series(traps, 1.0, 10_000, np.random.default_rng(0))
    assert np.all(mult <= 1.0)
    assert np.all(mult >= (1 - 0.3) * (1 - 0.2) - 1e-12)
    # With no traps, the multiplier is identically one.
    assert np.all(multiplier_series([], 1.0, 10, np.random.default_rng(0)) == 1.0)


def test_multiplier_depth_factor_scaling():
    traps = [Trap(0.3, 0.9, 0.1)]  # almost always occupied
    weak = multiplier_series(traps, 0.1, 5_000, np.random.default_rng(0))
    strong = multiplier_series(traps, 1.0, 5_000, np.random.default_rng(0))
    assert weak.mean() > strong.mean()


def test_negative_depth_factor_rejected():
    with pytest.raises(ConfigurationError):
        log_depth_terms(np.array([0.1]), -1.0)
