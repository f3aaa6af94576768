"""Common ECC codec interface.

Codewords are numpy bit arrays (dtype uint8, values 0/1). ``decode``
returns both the corrected data estimate and a classification of what the
decoder *believes* happened; tests compare that belief against ground truth
to measure miscorrection (silent data corruption) rates.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import EccError


class DecodeOutcome(enum.Enum):
    """What the decoder reports for one codeword."""

    CLEAN = "clean"  # zero syndrome
    CORRECTED = "corrected"  # error found and repaired
    DETECTED = "detected"  # error detected, not correctable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class DecodeResult:
    """Decoder output: data estimate plus the decoder's belief."""

    data: np.ndarray
    outcome: DecodeOutcome


#: Stable integer outcome codes for batched decoders. ``decode_batch``
#: returns one code per codeword; index :data:`OUTCOME_BY_CODE` to recover
#: the enum member.
OUTCOME_CLEAN = 0
OUTCOME_CORRECTED = 1
OUTCOME_DETECTED = 2
OUTCOME_BY_CODE = (
    DecodeOutcome.CLEAN,
    DecodeOutcome.CORRECTED,
    DecodeOutcome.DETECTED,
)


class EccCode(ABC):
    """One systematic block code over bits."""

    #: Total codeword length in bits.
    n_bits: int
    #: Data payload length in bits.
    k_bits: int

    @property
    def parity_bits(self) -> int:
        return self.n_bits - self.k_bits

    def _check_data(self, data: np.ndarray) -> np.ndarray:
        bits = np.asarray(data, dtype=np.uint8) & 1
        if bits.shape != (self.k_bits,):
            raise EccError(
                f"{type(self).__name__}: expected {self.k_bits} data bits, "
                f"got shape {bits.shape}"
            )
        return bits

    def _check_codeword(self, codeword: np.ndarray) -> np.ndarray:
        bits = np.asarray(codeword, dtype=np.uint8) & 1
        if bits.shape != (self.n_bits,):
            raise EccError(
                f"{type(self).__name__}: expected {self.n_bits} codeword "
                f"bits, got shape {bits.shape}"
            )
        return bits

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
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k_bits`` data bits into an ``n_bits`` codeword."""

    @abstractmethod
    def decode(self, codeword: np.ndarray) -> DecodeResult:
        """Decode a (possibly corrupted) codeword."""

    @abstractmethod
    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """:meth:`encode` over a ``(trials, k_bits)`` batch."""

    @abstractmethod
    def decode_batch(
        self, codewords: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`decode` over a ``(trials, n_bits)`` batch.

        Returns the ``(trials, k_bits)`` data estimates and a ``(trials,)``
        int8 array of outcome codes, matching :meth:`decode` codeword for
        codeword.
        """

    def roundtrip_clean(self, data: np.ndarray) -> bool:
        """Sanity: encode-decode of clean data returns the data as CLEAN."""
        result = self.decode(self.encode(data))
        return (
            result.outcome is DecodeOutcome.CLEAN
            and bool(np.array_equal(result.data, self._check_data(data)))
        )
