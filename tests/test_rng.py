"""Tests for deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rng import child_seed, derive, generators, seed_sequence_state


def test_same_path_same_stream():
    a = derive(42, "module", "M1", "row", 7)
    b = derive(42, "module", "M1", "row", 7)
    assert np.array_equal(a.integers(0, 2**32, 16), b.integers(0, 2**32, 16))


def test_different_paths_differ():
    a = derive(42, "module", "M1", "row", 7)
    b = derive(42, "module", "M1", "row", 8)
    assert not np.array_equal(a.integers(0, 2**32, 16), b.integers(0, 2**32, 16))


def test_different_seeds_differ():
    assert child_seed(1, "x") != child_seed(2, "x")


def test_path_elements_not_concatenation_ambiguous():
    # ("ab", "c") must differ from ("a", "bc").
    assert child_seed(0, "ab", "c") != child_seed(0, "a", "bc")


def test_int_and_str_elements_distinct():
    # The encoding stringifies, so 1 and "1" collide intentionally is NOT
    # desired; they are the same string, accept documented behavior:
    assert child_seed(0, 1) == child_seed(0, "1")


def test_rejects_non_str_int_path():
    with pytest.raises(TypeError):
        child_seed(0, 3.5)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        child_seed(0, True)  # type: ignore[arg-type]


@given(st.integers(min_value=-(2**62), max_value=2**62), st.text(max_size=20))
def test_child_seed_is_64_bit(seed, name):
    value = child_seed(seed, name)
    assert 0 <= value < 2**64


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _seed_sequence_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
def test_seed_sequence_state_matches_numpy(seeds):
    """The array pass equals numpy's SeedSequence over the whole uint64
    range, with the one/two 32-bit-word boundary pinned."""
    seeds = SEED_EDGES + seeds
    expected = np.array([_seed_sequence_words(seed) for seed in seeds])
    state = seed_sequence_state(seeds)
    assert state.dtype == np.uint64
    np.testing.assert_array_equal(state, expected)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 40])
def test_generators_equal_integer_seeded_generators(count):
    """Each yielded generator is the one ``Generator(PCG64(seed))``
    builds, draw for draw."""
    seeds = (SEED_EDGES * 8)[:count]
    built = list(generators(seeds))
    assert len(built) == count
    for rng, seed in zip(built, seeds):
        reference = np.random.Generator(np.random.PCG64(seed))
        assert rng.bit_generator.state == reference.bit_generator.state
        np.testing.assert_array_equal(rng.random(5), reference.random(5))
        assert rng.standard_exponential() == reference.standard_exponential()
