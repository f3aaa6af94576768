"""Tests for the SEC and Hsiao SECDED (72, 64) codes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.base import OUTCOME_CLEAN, OUTCOME_CORRECTED, OUTCOME_DETECTED
from repro.ecc.hamming import Sec72, Secded72
from repro.errors import EccError

CODES = [Sec72(), Secded72()]


def random_data(rng, trials=1):
    return rng.integers(0, 2, (trials, 64), dtype=np.uint8)


def with_errors(code, data, n_errors, rng, trials=2000):
    """``trials`` copies of ``data``'s codeword, each with ``n_errors``
    distinct flipped bits."""
    codewords = np.repeat(code.encode_batch(data), trials, axis=0)
    for row in codewords:
        row[rng.choice(code.n_bits, size=n_errors, replace=False)] ^= 1
    return codewords


@pytest.mark.parametrize("code", CODES, ids=lambda c: type(c).__name__)
def test_clean_roundtrip(code):
    data = random_data(np.random.default_rng(0), trials=20)
    decoded, outcomes = code.decode_batch(code.encode_batch(data))
    assert np.array_equal(decoded, data)
    assert np.all(outcomes == OUTCOME_CLEAN)


@pytest.mark.parametrize("code", CODES, ids=lambda c: type(c).__name__)
def test_every_single_bit_error_corrected(code):
    data = random_data(np.random.default_rng(1))
    corrupted = code.encode_batch(data) ^ np.eye(code.n_bits, dtype=np.uint8)
    decoded, outcomes = code.decode_batch(corrupted)
    assert np.all(outcomes == OUTCOME_CORRECTED)
    assert np.array_equal(decoded, np.repeat(data, code.n_bits, axis=0))


def test_secded_detects_all_double_errors():
    code = Secded72()
    rng = np.random.default_rng(2)
    _, outcomes = code.decode_batch(
        with_errors(code, random_data(rng), 2, rng)
    )
    assert np.all(outcomes == OUTCOME_DETECTED)


def test_sec_double_errors_can_miscorrect():
    """The plain SEC code silently corrupts on some double errors — the
    weakness quantified by Table 3's SEC row."""
    code = Sec72()
    rng = np.random.default_rng(3)
    data = random_data(rng)
    decoded, outcomes = code.decode_batch(with_errors(code, data, 2, rng))
    wrong = np.any(decoded != data, axis=1)
    assert np.any(wrong & (outcomes != OUTCOME_DETECTED))


def test_secded_triple_errors_mostly_alias():
    """Triple errors regain odd syndrome weight; many miscorrect, which is
    the SECDED 'undetectable' channel in Table 3."""
    code = Secded72()
    rng = np.random.default_rng(4)
    data = random_data(rng)
    decoded, outcomes = code.decode_batch(with_errors(code, data, 3, rng))
    wrong = np.any(decoded != data, axis=1)
    assert np.any(wrong & (outcomes == OUTCOME_CORRECTED))


@pytest.mark.parametrize("code", CODES, ids=lambda c: type(c).__name__)
def test_shape_validation(code):
    with pytest.raises(EccError):
        code.encode_batch(np.zeros(64, dtype=np.uint8))
    with pytest.raises(EccError):
        code.decode_batch(np.zeros((2, 10), dtype=np.uint8))


@given(data=st.lists(st.integers(0, 1), min_size=64, max_size=64))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(data):
    code = Secded72()
    bits = np.array([data], dtype=np.uint8)
    decoded, outcomes = code.decode_batch(code.encode_batch(bits))
    assert outcomes[0] == OUTCOME_CLEAN
    assert np.array_equal(decoded, bits)
