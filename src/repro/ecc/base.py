"""Common ECC codec interface.

Codewords are numpy bit arrays (dtype uint8, values 0/1), one codeword
per row of a batch. ``decode_batch`` returns both the corrected data
estimates and a classification of what the decoder *believes* happened;
the Monte Carlo compares that belief against ground truth to measure
miscorrection (silent data corruption) rates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import EccError

#: Integer outcome codes, one per decoded codeword: zero syndrome, error
#: found and repaired, error detected but not correctable.
OUTCOME_CLEAN = 0
OUTCOME_CORRECTED = 1
OUTCOME_DETECTED = 2


class EccCode(ABC):
    """One systematic block code over bits."""

    #: Total codeword length in bits.
    n_bits: int
    #: Data payload length in bits.
    k_bits: int

    def _check_data_batch(self, data: np.ndarray) -> np.ndarray:
        bits = np.asarray(data, dtype=np.uint8) & 1
        if bits.ndim != 2 or bits.shape[1] != self.k_bits:
            raise EccError(
                f"{type(self).__name__}: expected (trials, {self.k_bits}) "
                f"data bits, got shape {bits.shape}"
            )
        return bits

    def _check_codeword_batch(self, codewords: np.ndarray) -> np.ndarray:
        bits = np.asarray(codewords, dtype=np.uint8) & 1
        if bits.ndim != 2 or bits.shape[1] != self.n_bits:
            raise EccError(
                f"{type(self).__name__}: expected (trials, {self.n_bits}) "
                f"codeword bits, got shape {bits.shape}"
            )
        return bits

    @abstractmethod
    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(trials, k_bits)`` batch into ``(trials, n_bits)``
        codewords."""

    @abstractmethod
    def decode_batch(
        self, codewords: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Decode a ``(trials, n_bits)`` batch of (possibly corrupted)
        codewords.

        Returns the ``(trials, k_bits)`` data estimates and a ``(trials,)``
        int8 array of outcome codes (:data:`OUTCOME_CLEAN` and friends).
        """
