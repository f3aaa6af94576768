"""Hamming-style bit codes: SEC and Hsiao SECDED over (72, 64).

Both are systematic: codeword = 64 data bits followed by 8 parity bits.

* :class:`Secded72` uses the Hsiao construction — all parity-check columns
  have odd weight (weight-3 and weight-5 columns for data, identity for
  parity), so any double error produces an even-weight syndrome and is
  *detected* rather than miscorrected.
* :class:`Sec72` uses arbitrary distinct nonzero columns; double errors can
  alias to valid single-error syndromes and silently miscorrect, which is
  exactly the weakness Table 3's SEC row quantifies.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

import numpy as np

from repro.ecc.base import (
    OUTCOME_CLEAN,
    OUTCOME_CORRECTED,
    OUTCOME_DETECTED,
    EccCode,
)

_PARITY = 8
_DATA = 64
_TOTAL = _DATA + _PARITY


def _weight_columns(weight: int) -> List[int]:
    """All 8-bit column values with the given popcount, ascending."""
    columns = []
    for bits in combinations(range(_PARITY), weight):
        value = 0
        for bit in bits:
            value |= 1 << bit
        columns.append(value)
    return sorted(columns)


class _HammingBase(EccCode):
    """Shared syndrome machinery; subclasses provide the data columns."""

    n_bits = _TOTAL
    k_bits = _DATA

    def __init__(self, data_columns: List[int]):
        if len(data_columns) != _DATA:
            raise ValueError(f"need {_DATA} data columns, got {len(data_columns)}")
        if len(set(data_columns)) != _DATA or 0 in data_columns:
            raise ValueError("data columns must be distinct and nonzero")
        parity_columns = [1 << bit for bit in range(_PARITY)]
        if set(data_columns) & set(parity_columns):
            raise ValueError("data columns must not collide with parity columns")
        self._columns = np.array(data_columns + parity_columns, dtype=np.int64)
        # Bit matrix of the data columns for vectorized parity computation.
        self._data_matrix = (
            (self._columns[:_DATA, None] >> np.arange(_PARITY)) & 1
        ).astype(np.uint8)  # shape (64, 8)
        # Decoder tables: the full (72, 8) column bit matrix plus dense
        # syndrome -> position (-1 = no matching column) and syndrome ->
        # correctable lookups covering all 256 syndromes.
        self._full_matrix = (
            (self._columns[:, None] >> np.arange(_PARITY)) & 1
        ).astype(np.uint8)
        self._syndrome_position = np.full(256, -1, dtype=np.int64)
        self._syndrome_position[self._columns] = np.arange(_TOTAL)
        self._syndrome_correctable = np.array(
            [self._correctable(syndrome) for syndrome in range(256)],
            dtype=bool,
        )

    def _correctable(self, syndrome: int) -> bool:
        """Whether a column-matching syndrome should be corrected."""
        return True

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(trials, 64)`` batch into ``(trials, 72)`` codewords."""
        bits = self._check_data_batch(data)
        parity = (bits @ self._data_matrix) & 1
        return np.concatenate([bits, parity.astype(np.uint8)], axis=1)

    def decode_batch(
        self, codewords: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Decode a ``(trials, 72)`` batch.

        Returns ``(data, outcomes)``: the ``(trials, 64)`` corrected data
        estimates and a ``(trials,)`` int8 array of outcome codes
        (:data:`~repro.ecc.base.OUTCOME_CLEAN` and friends). A nonzero
        syndrome equal to one column flips that bit, if correctable.
        """
        bits = self._check_codeword_batch(codewords)
        # XOR-folding the set columns equals, per parity bit, the popcount
        # of set columns carrying that bit taken mod 2.
        parity = (bits @ self._full_matrix) & 1
        syndromes = parity.astype(np.int64) @ (1 << np.arange(_PARITY))
        positions = self._syndrome_position[syndromes]
        correctable = (positions >= 0) & self._syndrome_correctable[syndromes]
        decoded = bits.copy()
        flip_rows = np.nonzero(correctable)[0]
        decoded[flip_rows, positions[flip_rows]] ^= 1
        outcomes = np.full(len(bits), OUTCOME_DETECTED, dtype=np.int8)
        outcomes[syndromes == 0] = OUTCOME_CLEAN
        outcomes[correctable] = OUTCOME_CORRECTED
        return decoded[:, :_DATA], outcomes


class Sec72(_HammingBase):
    """Single-error-correcting (72, 64) code with mixed-weight columns.

    Double errors whose XOR matches another column miscorrect silently.
    """

    def __init__(self) -> None:
        # Any 64 distinct nonzero non-identity columns: mix of weights.
        columns = [
            value for value in range(3, 256)
            if value not in {1 << b for b in range(_PARITY)}
        ][:_DATA]
        super().__init__(columns)


class Secded72(_HammingBase):
    """Hsiao SECDED (72, 64): odd-weight columns only.

    A double error XORs two odd-weight columns into an even-weight
    syndrome, which never matches a column — DETECTED, not miscorrected.
    Triple errors can alias back to odd weight and miscorrect; Table 3's
    SECDED "undetectable" row is exactly that triple-error probability.
    """

    def __init__(self) -> None:
        weight3 = _weight_columns(3)  # 56 columns
        weight5 = _weight_columns(5)[: _DATA - len(weight3)]  # 8 more
        super().__init__(weight3 + weight5)

    def _correctable(self, syndrome: int) -> bool:
        # Only odd-weight syndromes are treated as single errors.
        return bin(syndrome).count("1") % 2 == 1
