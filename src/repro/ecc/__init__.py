"""Error-correcting codes (paper Sec. 6.4, Table 3).

Bit-exact batched codecs for the three ECC schemes the paper evaluates
against VRD-induced bitflips:

* **SEC** — single-error-correcting Hamming-style code over a 72-bit
  codeword (64 data bits);
* **SECDED** — Hsiao single-error-correcting double-error-detecting
  (72, 64) code;
* **Chipkill-like SSC** — single-symbol-correcting Reed-Solomon (18, 16)
  code over GF(256): a 144-bit codeword of 18 byte symbols.

Plus the analytic error-outcome probabilities behind Table 3
(:mod:`repro.ecc.analysis`), validated against the codecs by Monte Carlo.
"""

from repro.ecc.base import EccCode
from repro.ecc.hamming import Sec72, Secded72
from repro.ecc.chipkill import ChipkillSsc
from repro.ecc.analysis import (
    EccOutcomeProbabilities,
    monte_carlo_outcomes,
    outcome_probabilities,
    table3,
)

__all__ = [
    "EccCode",
    "Sec72",
    "Secded72",
    "ChipkillSsc",
    "EccOutcomeProbabilities",
    "outcome_probabilities",
    "monte_carlo_outcomes",
    "table3",
]
