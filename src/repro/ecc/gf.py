"""GF(256) arithmetic for the Chipkill-like symbol code.

Standard byte field with the AES-adjacent primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator alpha = 2, implemented with
log/antilog tables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EccError

_PRIMITIVE_POLY = 0x11D


class GF256:
    """The finite field GF(2^8)."""

    def __init__(self) -> None:
        exp = np.zeros(512, dtype=np.int64)
        log = np.zeros(256, dtype=np.int64)
        value = 1
        for power in range(255):
            exp[power] = value
            log[value] = power
            value <<= 1
            if value & 0x100:
                value ^= _PRIMITIVE_POLY
        exp[255:510] = exp[:255]  # wraparound for cheap modular indexing
        self._exp = exp
        self._log = log

    def pow_alpha(self, power: int) -> int:
        """alpha ** power for the field generator alpha = 2."""
        return int(self._exp[power % 255])

    # Array forms: log/antilog lookups on whole symbol batches
    # (broadcasting as numpy does), for the vectorized codecs.

    def mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise GF(256) product of two symbol arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # log[0] is a dummy 0 entry; mask those products out afterwards.
        products = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, products)

    def div_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise GF(256) quotient; every divisor must be nonzero."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any(b == 0):
            raise EccError("division by zero in GF(256)")
        quotients = self._exp[(self._log[a] - self._log[b]) % 255]
        return np.where(a == 0, 0, quotients)

    def log_alpha_arrays(self, values: np.ndarray) -> np.ndarray:
        """Elementwise discrete log; every value must be nonzero."""
        values = np.asarray(values, dtype=np.int64)
        if np.any(values == 0):
            raise EccError("discrete log of zero is undefined")
        return self._log[values]


#: Shared field instance (tables are immutable).
FIELD = GF256()
