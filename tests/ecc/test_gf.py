"""Field-axiom tests for GF(256), on every element pair the array
operations see (addition is XOR)."""

import numpy as np
import pytest

from repro.ecc.gf import FIELD
from repro.errors import EccError

#: Every ordered pair of field elements.
A, B = (grid.ravel() for grid in np.meshgrid(np.arange(256), np.arange(256)))
NONZERO = B != 0


def test_addition_is_xor_and_self_inverse():
    # Addition is plain XOR on symbols: 0 is its identity, every element
    # is its own negative, and multiplication distributes over it.
    assert np.array_equal(A ^ 0, A)
    assert not np.any(A ^ A)
    assert np.all((A ^ B) < 256)
    assert not np.any(FIELD.mul_arrays(A, B ^ B))


def test_multiplication_associative_commutative():
    mul = FIELD.mul_arrays
    assert np.array_equal(mul(A, B), mul(B, A))
    assert np.array_equal(mul(A, 1), A)
    c = np.random.default_rng(0).integers(0, 256, A.size)
    assert np.array_equal(mul(mul(A, B), c), mul(A, mul(B, c)))


def test_distributive():
    mul = FIELD.mul_arrays
    c = np.random.default_rng(1).integers(0, 256, A.size)
    assert np.array_equal(mul(A, B ^ c), mul(A, B) ^ mul(A, c))


def test_inverse():
    nonzero = np.arange(1, 256)
    inverses = FIELD.div_arrays(np.ones_like(nonzero), nonzero)
    assert np.all(FIELD.mul_arrays(nonzero, inverses) == 1)


def test_division():
    a, b = A[NONZERO], B[NONZERO]
    assert np.array_equal(FIELD.mul_arrays(FIELD.div_arrays(a, b), b), a)


def test_zero_division_rejected():
    with pytest.raises(EccError):
        FIELD.div_arrays(1, 0)
    with pytest.raises(EccError):
        FIELD.div_arrays(A, B)
    with pytest.raises(EccError):
        FIELD.log_alpha_arrays(0)


def test_alpha_powers():
    assert FIELD.pow_alpha(0) == 1
    assert FIELD.pow_alpha(1) == 2
    assert FIELD.pow_alpha(255) == 1  # alpha has order 255
    powers = np.array([FIELD.pow_alpha(power) for power in range(255)])
    assert np.array_equal(FIELD.log_alpha_arrays(powers), np.arange(255))
