"""Chipkill-like single-symbol-correcting code.

A shortened Reed-Solomon (18, 16) code over GF(256): 18 byte symbols
(144 bits), 16 of them data, evaluated at roots alpha^0 and alpha^1. Any
number of bit errors confined to *one* symbol — e.g. a whole failing DRAM
chip, or several VRD flips in one chip's slice — is corrected; errors across
two or more symbols overwhelm the two check symbols.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import (
    OUTCOME_CLEAN,
    OUTCOME_CORRECTED,
    OUTCOME_DETECTED,
    EccCode,
)
from repro.ecc.gf import FIELD

_SYMBOLS = 18
_DATA_SYMBOLS = 16
_BITS_PER_SYMBOL = 8


class ChipkillSsc(EccCode):
    """Single-symbol-correcting RS(18, 16) over GF(256)."""

    n_bits = _SYMBOLS * _BITS_PER_SYMBOL
    k_bits = _DATA_SYMBOLS * _BITS_PER_SYMBOL
    n_symbols = _SYMBOLS
    data_symbols = _DATA_SYMBOLS
    bits_per_symbol = _BITS_PER_SYMBOL

    def __init__(self) -> None:
        # Precompute alpha^i for each symbol position.
        self._alpha = [FIELD.pow_alpha(i) for i in range(_SYMBOLS)]
        # Solve the 2x2 parity system once: positions 16, 17 hold parity.
        self._denominator = self._alpha[16] ^ self._alpha[17]

    # Bit <-> symbol packing: symbol i = bits [8i, 8i+8), LSB first.

    @staticmethod
    def _to_symbols_batch(bits: np.ndarray) -> np.ndarray:
        trials = bits.shape[0]
        return np.packbits(
            bits.reshape(trials, -1, _BITS_PER_SYMBOL),
            axis=2,
            bitorder="little",
        ).reshape(trials, -1)

    @staticmethod
    def _to_bits_batch(symbols: np.ndarray) -> np.ndarray:
        trials = symbols.shape[0]
        return np.unpackbits(
            symbols.astype(np.uint8)[:, :, None], axis=2, bitorder="little"
        ).reshape(trials, -1)

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(trials, 128)`` batch into ``(trials, 144)`` bits."""
        bits = self._check_data_batch(data)
        trials = bits.shape[0]
        symbols = np.zeros((trials, _SYMBOLS), dtype=np.uint8)
        symbols[:, :_DATA_SYMBOLS] = self._to_symbols_batch(bits)
        data_symbols = symbols[:, :_DATA_SYMBOLS].astype(np.int64)
        alpha = np.array(self._alpha[:_DATA_SYMBOLS], dtype=np.int64)
        s0 = np.bitwise_xor.reduce(data_symbols, axis=1)
        s1 = np.bitwise_xor.reduce(
            FIELD.mul_arrays(data_symbols, alpha[None, :]), axis=1
        )
        numerator = s1 ^ FIELD.mul_arrays(s0, self._alpha[16])
        p17 = FIELD.div_arrays(numerator, self._denominator)
        symbols[:, 17] = p17
        symbols[:, 16] = s0 ^ p17
        return self._to_bits_batch(symbols)

    def decode_batch(
        self, codewords: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Decode a ``(trials, 144)`` batch.

        Returns ``(data, outcomes)``: ``(trials, 128)`` data-bit estimates
        and a ``(trials,)`` int8 array of outcome codes. Nonzero syndromes
        ``s0``, ``s1`` locate one symbol error of value ``s0`` at
        ``log(s1 / s0)``; anything else is detected.
        """
        bits = self._check_codeword_batch(codewords)
        symbols = self._to_symbols_batch(bits).astype(np.int64)
        alpha = np.array(self._alpha, dtype=np.int64)
        s0 = np.bitwise_xor.reduce(symbols, axis=1)
        s1 = np.bitwise_xor.reduce(
            FIELD.mul_arrays(symbols, alpha[None, :]), axis=1
        )
        outcomes = np.full(len(bits), OUTCOME_DETECTED, dtype=np.int8)
        outcomes[(s0 == 0) & (s1 == 0)] = OUTCOME_CLEAN
        both = (s0 != 0) & (s1 != 0)
        # Locator = log(s1/s0); out-of-range locators stay DETECTED.
        positions = np.full(len(bits), _SYMBOLS, dtype=np.int64)
        if np.any(both):
            positions[both] = FIELD.log_alpha_arrays(
                FIELD.div_arrays(s1[both], s0[both])
            )
        fixable = both & (positions < _SYMBOLS)
        repaired = symbols.copy()
        rows = np.nonzero(fixable)[0]
        repaired[rows, positions[rows]] ^= s0[rows]
        outcomes[fixable] = OUTCOME_CORRECTED
        data_bits = self._to_bits_batch(repaired)[:, : self.k_bits]
        return data_bits, outcomes
