"""Tests for the Chipkill-like single-symbol-correcting code."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.base import OUTCOME_CLEAN, OUTCOME_CORRECTED, OUTCOME_DETECTED
from repro.ecc.chipkill import ChipkillSsc


@pytest.fixture(scope="module")
def code():
    return ChipkillSsc()


def test_dimensions(code):
    # 18 symbols of 8 bits = 144-bit codeword, 16 data symbols (Table 3).
    assert code.n_bits == 144
    assert code.k_bits == 128
    assert code.n_symbols == 18


def test_clean_roundtrip(code):
    data = np.random.default_rng(0).integers(0, 2, (20, 128), dtype=np.uint8)
    decoded, outcomes = code.decode_batch(code.encode_batch(data))
    assert np.array_equal(decoded, data)
    assert np.all(outcomes == OUTCOME_CLEAN)


def test_any_error_within_one_symbol_corrected(code):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 2, (1, 128), dtype=np.uint8)
    patterns = np.unpackbits(
        np.array([0x01, 0x81, 0xFF, 0x5A], dtype=np.uint8)[:, None],
        axis=1, bitorder="little",
    )
    errors = np.zeros((code.n_symbols, len(patterns), 144), dtype=np.uint8)
    for symbol in range(code.n_symbols):
        errors[symbol, :, symbol * 8:symbol * 8 + 8] = patterns
    decoded, outcomes = code.decode_batch(
        code.encode_batch(data) ^ errors.reshape(-1, 144)
    )
    assert np.all(outcomes == OUTCOME_CORRECTED)
    assert np.array_equal(decoded, np.repeat(data, len(decoded), axis=0))


def test_two_symbol_errors_not_silently_wrong_often(code):
    """Two-symbol errors exceed the correction power; the decoder either
    detects them or (rarely) miscorrects — it must never return CLEAN."""
    rng = np.random.default_rng(2)
    data = rng.integers(0, 2, (1, 128), dtype=np.uint8)
    corrupted = np.repeat(code.encode_batch(data), 1000, axis=0)
    for row in corrupted:
        s1, s2 = rng.choice(code.n_symbols, size=2, replace=False)
        row[s1 * 8 + int(rng.integers(8))] ^= 1
        row[s2 * 8 + int(rng.integers(8))] ^= 1
    _, outcomes = code.decode_batch(corrupted)
    assert not np.any(outcomes == OUTCOME_CLEAN)
    assert np.any(outcomes == OUTCOME_DETECTED)


@given(
    data=st.lists(st.integers(0, 1), min_size=128, max_size=128),
    symbol=st.integers(0, 17),
    pattern=st.integers(1, 255),
)
@settings(max_examples=60, deadline=None)
def test_single_symbol_correction_property(data, symbol, pattern):
    code = ChipkillSsc()
    bits = np.array([data], dtype=np.uint8)
    corrupted = code.encode_batch(bits)
    for bit in range(8):
        if pattern & (1 << bit):
            corrupted[0, symbol * 8 + bit] ^= 1
    decoded, outcomes = code.decode_batch(corrupted)
    assert outcomes[0] == OUTCOME_CORRECTED
    assert np.array_equal(decoded, bits)
