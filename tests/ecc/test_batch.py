"""Batched codec paths must match the scalar codecs trial for trial."""

import numpy as np
import pytest

from repro.ecc import analysis
from repro.ecc.analysis import monte_carlo_outcomes
from repro.ecc.chipkill import ChipkillSsc
from repro.ecc.gf import FIELD
from repro.ecc.hamming import Sec72, Secded72
from repro.errors import EccError
from tests.differential.harness import (
    gf_div,
    gf_log,
    gf_mul,
    reference_monte_carlo,
    scalar_decode,
    scalar_encode,
)

CODES = [Sec72(), Secded72(), ChipkillSsc()]


class TestGfArrays:
    def test_mul_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        products = FIELD.mul_arrays(a, b)
        for x, y, product in zip(a, b, products):
            assert product == gf_mul(int(x), int(y))

    def test_div_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 500)
        b = rng.integers(1, 256, 500)
        quotients = FIELD.div_arrays(a, b)
        for x, y, quotient in zip(a, b, quotients):
            assert quotient == gf_div(int(x), int(y))

    def test_log_matches_scalar(self):
        values = np.arange(1, 256)
        logs = FIELD.log_alpha_arrays(values)
        for value, log in zip(values, logs):
            assert log == gf_log(int(value))

    def test_zero_divisor_and_zero_log_rejected(self):
        with pytest.raises(EccError):
            FIELD.div_arrays(np.array([1, 2]), np.array([3, 0]))
        with pytest.raises(EccError):
            FIELD.log_alpha_arrays(np.array([5, 0]))


@pytest.mark.parametrize("code", CODES, ids=lambda c: type(c).__name__)
class TestBatchCodecEquality:
    def test_encode_batch_matches_scalar(self, code):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, (300, code.k_bits), dtype=np.uint8)
        batch = code.encode_batch(data)
        scalar = np.stack([scalar_encode(code, row) for row in data])
        np.testing.assert_array_equal(batch, scalar)

    def test_decode_batch_matches_scalar_per_trial(self, code):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, (600, code.k_bits), dtype=np.uint8)
        codewords = code.encode_batch(data)
        # Error weights spanning clean, single, double, and bursty cases.
        errors = (rng.random(codewords.shape) < 0.02).astype(np.uint8)
        errors[:100] = 0
        for trial in range(100, 200):  # guaranteed single-bit errors
            errors[trial] = 0
            errors[trial, trial % code.n_bits] = 1
        errors[200:250, :6] = 1  # burst confined to the first bits
        received = codewords ^ errors
        decoded, outcomes = code.decode_batch(received)
        for trial in range(len(received)):
            data_estimate, outcome = scalar_decode(code, received[trial])
            np.testing.assert_array_equal(decoded[trial], data_estimate)
            assert outcomes[trial] == outcome

    def test_batch_shape_validation(self, code):
        with pytest.raises(EccError):
            code.encode_batch(np.zeros((4, code.k_bits + 1), dtype=np.uint8))
        with pytest.raises(EccError):
            code.decode_batch(np.zeros(code.n_bits, dtype=np.uint8))


@pytest.mark.parametrize("code", CODES, ids=lambda c: type(c).__name__)
def test_monte_carlo_dispatch_identical(code):
    """The blocked Monte Carlo, which decodes only the rows that took an
    error, matches the unblocked per-codeword oracle tally for tally."""
    trials = analysis._MC_CHUNK + 500  # cross one chunk boundary
    assert monte_carlo_outcomes(
        code, 1e-3, trials=trials, rng=np.random.default_rng(5)
    ) == reference_monte_carlo(code, 1e-3, trials, np.random.default_rng(5))
