"""Tests for deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.rng
from repro.rng import (
    _ARRAY_SEEDING_MIN,
    _EXPONENTIAL_KE,
    _EXPONENTIAL_WE,
    _PROBE_EXPONENTIALS,
    _PROBE_SEED,
    _PROBE_SHAPE,
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    _exponential_block,
    _normal_at,
    _word_layout,
    child_seed,
    derive,
    generators,
    seed_sequence_state,
    step_draws,
    word_mirror_ok,
)


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


@pytest.mark.parametrize(
    "count",
    [0, 1, _ARRAY_SEEDING_MIN - 1, _ARRAY_SEEDING_MIN, _ARRAY_SEEDING_MIN + 1, 40],
)
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


# ----------------------------------------------------------------------
# step_draws: the word mirror of Generator.random / standard_normal
# ----------------------------------------------------------------------


def _pcg64(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _steps(rng, n, uniforms, normals):
    """The reference: ``n`` steps of ``random(uniforms)`` then
    ``standard_normal(normals)``."""
    drawn = [(rng.random(uniforms), rng.standard_normal(normals))
             for _ in range(n)]
    return (
        np.array([u for u, _ in drawn]).reshape(n, uniforms),
        np.array([z for _, z in drawn]).reshape(n, normals),
    )


step_shapes = st.tuples(
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 400)),
    st.one_of(st.just(0), st.integers(0, 12)),
    st.one_of(st.sampled_from([1, 16]), st.integers(0, 20)),
)


def _check_step_draws(shape, seed, keep):
    n, uniforms, normals = shape
    rng = _pcg64(seed)
    reference = _pcg64(seed)
    draws = step_draws(rng, n, uniforms, normals)
    expected_uniforms, expected_normals = _steps(
        reference, n, uniforms, normals
    )
    assert draws.uniforms.shape == (n, uniforms)
    assert draws.normals.shape == (n, normals)
    # Bit for bit: the float64 bit patterns, so a zero's sign counts.
    for drawn, expected in (
        (draws.uniforms, expected_uniforms), (draws.normals, expected_normals)
    ):
        np.testing.assert_array_equal(
            np.ascontiguousarray(drawn).view(np.uint64),
            np.ascontiguousarray(expected).view(np.uint64),
        )
    assert rng.bit_generator.state == reference.bit_generator.state
    # Rewound to just after step ``kept``, as if only those were drawn.
    kept = int(keep * n)
    draws.rewind(kept)
    reference = _pcg64(seed)
    _steps(reference, kept, uniforms, normals)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random() == reference.random()


@given(
    shape=step_shapes,
    seed=st.integers(0, 2**64 - 1),
    keep=st.floats(0.0, 1.0),
)
@example(shape=(0, 3, 16), seed=1, keep=0.0)
@example(shape=(1, 0, 1), seed=2, keep=0.0)
@example(shape=(1, 9, 16), seed=3, keep=1.0)
@example(shape=(300, 0, 16), seed=4, keep=0.5)
@example(shape=(300, 9, 1), seed=5, keep=0.3)
@settings(max_examples=150, deadline=None)
def test_step_draws_equal_native_steps(shape, seed, keep):
    """Draws, final generator state and any rewind equal numpy's own
    per-step calls."""
    _check_step_draws(shape, seed, keep)


def test_step_draws_native_route_equals_native_steps(monkeypatch):
    monkeypatch.setattr(repro.rng, "_WORD_MIRROR_OK", False)
    test_step_draws_equal_native_steps()


def test_short_blocks_are_extended(monkeypatch):
    """A block too short for its draws draws more words, bit for bit."""
    monkeypatch.setattr(repro.rng, "_BLOCK_SLACK", 0)
    for seed in range(40):
        _check_step_draws((3, 0, 16), seed, 0.5)
        _check_step_draws((1, 0, 1), seed, 0.0)


def test_buffered_half_word_survives():
    """PCG64's buffered 32-bit half-word, which no double draw touches,
    is kept through the blocked draws and a rewind."""
    rng = _pcg64(5)
    reference = _pcg64(5)
    rng.integers(0, 2**32, dtype=np.uint32)
    reference.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    draws = step_draws(rng, 50, 3, 16)
    _steps(reference, 50, 3, 16)
    assert rng.bit_generator.state == reference.bit_generator.state
    draws.rewind(20)
    reference = _pcg64(5)
    reference.integers(0, 2**32, dtype=np.uint32)
    _steps(reference, 20, 3, 16)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_layout_refuses_a_block_one_word_short():
    words = _pcg64(11).bit_generator.random_raw(20_000)
    starts, uniforms, normals = _word_layout(words, 500, 4, 16)
    used = int(starts[-1])
    assert _word_layout(words[:used - 1], 500, 4, 16) is None
    exact = _word_layout(words[:used], 500, 4, 16)
    np.testing.assert_array_equal(exact[0], starts)
    np.testing.assert_array_equal(exact[2], normals)


#: numpy's PCG64 multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _crafted(word):
    """A generator whose next 64-bit word is ``word``.

    PCG64 steps its 128-bit state (``state * mult + inc``) and outputs
    the xorshift-rotate of the new state; a new state with a zero high
    half outputs its low half unrotated. So the state before is
    ``(word - inc) * mult**-1``, modulo 2**128.
    """
    rng = _pcg64(3)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    previous = ((word - inc) * pow(_PCG64_MULT, -1, 2**128)) % 2**128
    state["state"]["state"] = previous
    rng.bit_generator.state = state
    return rng


def _takes_one_word(word):
    rng = _crafted(word)
    rng.standard_normal()
    return rng.bit_generator.state["state"]["state"] == word


def test_crafted_state_outputs_the_chosen_word():
    for word in (0, 1, 0x1FF, 2**64 - 1, 0x0123_4567_89AB_CDEF):
        assert _crafted(word).bit_generator.random_raw() == word


def test_ziggurat_tables_match_numpy():
    """Re-derive ``wi`` and ``ki`` of all 256 layers from numpy itself.

    A word with layer ``i`` and magnitude 1 draws ``wi[i]`` (layer 1,
    whose ``ki`` is 0, through an accepted wedge); the smallest
    magnitude whose draw takes more than one word is ``ki[i]``.
    """
    for layer in range(256):
        wi = _ZIGGURAT_WI[layer]
        assert _crafted((1 << 9) | layer).standard_normal() == wi
        assert _crafted((1 << 9) | 0x100 | layer).standard_normal() == -wi
        low, high = 0, 2**52  # one word below ``low``, more at ``high``
        while low < high:
            middle = (low + high) // 2
            if _takes_one_word((middle << 9) | layer):
                low = middle + 1
            else:
                high = middle
        assert low == int(_ZIGGURAT_KI[layer]), layer
    assert _ZIGGURAT_KI[1] == 0


def _branch_counts(words, starts, normals_only):
    """How the draws starting at ``starts[:-1]`` (``normals_only`` picks
    the normals) leave their first word: the fast path (one word), an
    accepted wedge (exactly two), a rejected wedge (a restart, three or
    more), or the tail (layer 0)."""
    first = words[starts[:-1][normals_only]]
    used = np.diff(starts)[normals_only]
    layer = (first & np.uint64(0xFF)).astype(np.int64)
    magnitude = (first >> np.uint64(9)) & np.uint64(2**52 - 1)
    slow = magnitude >= _ZIGGURAT_KI[layer]
    assert np.all(used[~slow] == 1)
    wedge = slow & (layer > 0)
    return {
        "fast": int((~slow).sum()),
        "wedge_accept": int((wedge & (used == 2)).sum()),
        "wedge_reject": int((wedge & (used > 2)).sum()),
        "tail": int((slow & (layer == 0)).sum()),
    }


def test_two_million_normals_take_every_branch_bit_for_bit():
    counts = dict.fromkeys(("fast", "wedge_accept", "wedge_reject", "tail"), 0)
    rng = _pcg64(2024)
    reference = _pcg64(2024)
    twin = _pcg64(2024)
    steps, normals = 4096, 16
    for _ in range(31):  # 2,031,616 normals
        draws = step_draws(rng, steps, 0, normals)
        np.testing.assert_array_equal(
            draws.normals, reference.standard_normal((steps, normals))
        )
        assert rng.bit_generator.state == reference.bit_generator.state
        words = twin.bit_generator.random_raw(steps * normals * 2)
        starts, _, normal_values = _word_layout(words, steps, 0, normals)
        np.testing.assert_array_equal(normal_values, draws.normals)
        twin.bit_generator.advance(int(starts[-1]) - words.size)
        branches = _branch_counts(words, starts, slice(None))
        for branch, count in branches.items():
            counts[branch] += count
    assert all(counts.values()), counts
    assert sum(counts.values()) == 31 * steps * normals


def test_probe_stream_takes_every_branch():
    n, uniforms, normals = _PROBE_SHAPE
    width = uniforms + normals
    words = _pcg64(_PROBE_SEED).bit_generator.random_raw(2 * n * width)
    starts, _, _ = _word_layout(words, n, uniforms, normals)
    is_normal = np.arange(n * width) % width >= uniforms
    counts = _branch_counts(words, starts, is_normal)
    assert all(counts.values()), counts
    assert word_mirror_ok()


# ----------------------------------------------------------------------
# The exponential ziggurat (the word route of short series)
# ----------------------------------------------------------------------


def _takes_one_word_exponential(word):
    rng = _crafted(word)
    rng.standard_exponential()
    return rng.bit_generator.state["state"]["state"] == word


def test_exponential_ziggurat_tables_match_numpy():
    """Re-derive ``we`` and ``ke`` of all 256 layers from numpy itself.

    A word with layer ``i`` (bits 3-10) and magnitude ``ri = word >> 11``
    of 1 draws ``we[i]`` (layer 1, whose ``ke`` is 0, through an accepted
    wedge); the smallest magnitude whose draw takes more than one word is
    ``ke[i]``.
    """
    for layer in range(256):
        assert _crafted((1 << 11) | (layer << 3)).standard_exponential() == (
            _EXPONENTIAL_WE[layer]
        )
        low, high = 0, 2**53  # one word below ``low``, more at ``high``
        while low < high:
            middle = (low + high) // 2
            if _takes_one_word_exponential((middle << 11) | (layer << 3)):
                low = middle + 1
            else:
                high = middle
        assert low == int(_EXPONENTIAL_KE[layer]), layer
    assert _EXPONENTIAL_KE[1] == 0


def _exponential_branches(words, starts):
    """How each exponential draw starting at ``starts[:-1]`` leaves its
    first word: the fast path (one word), the layer-0 tail (exactly two),
    an accepted wedge (exactly two) or a rejected wedge (a restart)."""
    first = words[starts[:-1]]
    used = np.diff(starts)
    layer = ((first >> np.uint64(3)) & np.uint64(0xFF)).astype(np.int64)
    slow = (first >> np.uint64(11)) >= _EXPONENTIAL_KE[layer]
    assert np.all(used[~slow] == 1)
    tail = slow & (layer == 0)
    assert np.all(used[tail] == 2)
    wedge = slow & (layer > 0)
    return {
        "fast": int((~slow).sum()),
        "tail": int(tail.sum()),
        "wedge_accept": int((wedge & (used == 2)).sum()),
        "wedge_reject": int((wedge & (used > 2)).sum()),
    }


def test_exponential_probe_stream_takes_every_branch():
    """The probe block of :func:`word_mirror_ok` reaches every branch of
    the exponential ziggurat, so the gate checks each of them."""
    seed, count = _PROBE_EXPONENTIALS
    words = _pcg64(seed).bit_generator.random_raw(2 * count)
    values, starts = _exponential_block(words, count)
    counts = _exponential_branches(words, np.array(starts))
    assert all(counts.values()), counts
    np.testing.assert_array_equal(values, _pcg64(seed).standard_exponential(count))
    assert word_mirror_ok()


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_exponential_block_equals_numpy(seed):
    """Values and words used of a block of standard exponentials resolved
    from raw words equal numpy's draws and final state."""
    words = _pcg64(seed).bit_generator.random_raw(4096)
    values, starts = _exponential_block(words, 2000)
    reference = _pcg64(seed)
    np.testing.assert_array_equal(values, reference.standard_exponential(2000))
    mirrored = _pcg64(seed)
    mirrored.bit_generator.advance(starts[-1])
    assert mirrored.bit_generator.state == reference.bit_generator.state


def test_normal_at_walks_every_branch_bit_for_bit():
    """One normal at a time from raw words, as the short-series route
    resolves off-path residuals: equal to numpy's draws and words used,
    over a stream that takes every branch of the normal ziggurat."""
    words = _pcg64(7).bit_generator.random_raw(41_000)
    starts, values = [0], []
    for _ in range(40_000):
        value, position = _normal_at(words, starts[-1])
        values.append(value)
        starts.append(position)
    reference = _pcg64(7)
    np.testing.assert_array_equal(values, reference.standard_normal(40_000))
    mirrored = _pcg64(7)
    mirrored.bit_generator.advance(starts[-1])
    assert mirrored.bit_generator.state == reference.bit_generator.state
    counts = _branch_counts(words, np.array(starts), slice(None))
    assert all(counts.values()), counts
