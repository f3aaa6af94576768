"""Error-outcome probabilities under a bit error rate (paper Table 3).

The paper derives a worst-case VRD bit error rate of 7.6e-5 (5 unique flips
in a 64 Kibit row at a 10% guardband) and reports, per ECC scheme, the
probability that a codeword's errors are uncorrectable, undetectable, or
detectable-but-uncorrectable. With independent bit errors at rate p:

* SEC/SECDED (n = 72): uncorrectable = P(>= 2 bit errors);
* SEC undetectable: every uncorrectable pattern may silently corrupt
  (miscorrection or aliasing) — the paper equates the two;
* SECDED undetectable: double errors are detected by construction, so the
  leading silent term is triple errors, P(>= 3);
* Chipkill SSC (18 symbols of 8 bits): a symbol errs with probability
  q = 1 - (1-p)^8; uncorrectable = P(>= 2 symbol errors), which the paper
  reports as undetectable (the two-check-symbol decoder has no reliable
  detection beyond one symbol).

:func:`monte_carlo_outcomes` validates both the closed forms and the real
codecs against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.special._ufuncs import _binom_sf

from repro import obs
from repro.ecc.base import OUTCOME_DETECTED, DecodeOutcome, EccCode
from repro.ecc.chipkill import ChipkillSsc
from repro.ecc.hamming import Sec72, Secded72
from repro.errors import EccError

#: The worst-case empirical bit error rate of Sec. 6.4: 5 unique flips in a
#: 64 Kibit row at a 10% safety margin.
PAPER_WORST_BER = 5.0 / 65_536.0


@dataclass(frozen=True)
class EccOutcomeProbabilities:
    """One column of Table 3."""

    scheme: str
    uncorrectable: float
    undetectable: float
    detectable_uncorrectable: Optional[float]  # None renders as N/A

    def as_row(self) -> Dict[str, str]:
        def fmt(value: Optional[float]) -> str:
            return "N/A" if value is None else f"{value:.2e}"

        return {
            "scheme": self.scheme,
            "uncorrectable": fmt(self.uncorrectable),
            "undetectable": fmt(self.undetectable),
            "detectable_uncorrectable": fmt(self.detectable_uncorrectable),
        }


def _at_least(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) >= k).

    Calls the Boost kernel ``scipy.stats.binom.sf`` wraps, with the
    wrapper's support rule (the raw kernel returns NaN at both edges)."""
    if not 0.0 <= p <= 1.0:
        raise EccError(f"bit error rate {p} outside [0, 1]")
    if k <= 0:
        return 1.0
    if k - 1 >= n:
        return 0.0
    return float(np.clip(_binom_sf(k - 1, n, p), 0.0, 1.0))


def outcome_probabilities(scheme: str, ber: float) -> EccOutcomeProbabilities:
    """Closed-form Table 3 entry for one scheme at a bit error rate."""
    key = scheme.strip().lower()
    if key == "sec":
        uncorrectable = _at_least(2, 72, ber)
        return EccOutcomeProbabilities(
            "SEC", uncorrectable, uncorrectable, None
        )
    if key == "secded":
        uncorrectable = _at_least(2, 72, ber)
        undetectable = _at_least(3, 72, ber)
        return EccOutcomeProbabilities(
            "SECDED", uncorrectable, undetectable, uncorrectable - undetectable
        )
    if key in ("ssc", "chipkill", "chipkill-like (ssc)"):
        symbol_rate = 1.0 - (1.0 - ber) ** 8
        uncorrectable = _at_least(2, 18, symbol_rate)
        return EccOutcomeProbabilities(
            "Chipkill-like (SSC)", uncorrectable, uncorrectable, None
        )
    raise EccError(f"unknown ECC scheme {scheme!r}")


def table3(ber: float = PAPER_WORST_BER) -> Dict[str, EccOutcomeProbabilities]:
    """All three Table 3 columns at the given bit error rate."""
    return {
        name: outcome_probabilities(name, ber)
        for name in ("SEC", "SECDED", "SSC")
    }


@dataclass
class MonteCarloOutcome:
    """Empirical outcome rates from injecting iid bit errors into a codec."""

    scheme: str
    trials: int
    uncorrectable: float  # decoded data differs from the truth
    undetectable: float  # differs AND decoder claims CLEAN or CORRECTED
    detected: float  # decoder reports DETECTED (regardless of data)


#: Trials per internal chunk of :func:`monte_carlo_outcomes`. Fixed rather
#: than tunable because the chunk boundaries define the RNG draw order —
#: each chunk draws one ``(chunk, k_bits)`` data batch followed by one
#: ``(chunk, n_bits)`` uniform batch — so a given seed always produces the
#: same trials regardless of how the decode work is dispatched.
_MC_CHUNK = 32_768


def monte_carlo_outcomes(
    code: EccCode,
    ber: float,
    trials: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> MonteCarloOutcome:
    """Inject iid bit errors into random codewords and classify outcomes.

    Ground truth is the encoded data; "uncorrectable" means the decoder's
    data estimate is wrong, "undetectable" means it is wrong while the
    decoder believes everything is fine (a silent data corruption).

    Trials are drawn in fixed chunks of ``_MC_CHUNK`` (data batch, then
    error-mask batch). Codecs exposing ``encode_batch``/``decode_batch``
    run through the vectorized path; others fall back to per-codeword
    ``encode``/``decode`` on the *same* batched draws, so per-trial
    outcomes are identical either way for a fixed seed.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    batched = hasattr(code, "encode_batch") and hasattr(code, "decode_batch")
    wrong = 0
    silent_wrong = 0
    detected = 0
    done = 0
    while done < trials:
        chunk = min(_MC_CHUNK, trials - done)
        data = rng.integers(0, 2, (chunk, code.k_bits), dtype=np.uint8)
        errors = (rng.random((chunk, code.n_bits)) < ber).astype(np.uint8)
        if batched:
            received = code.encode_batch(data) ^ errors
            decoded, outcomes = code.decode_batch(received)
            is_detected = outcomes == OUTCOME_DETECTED
            data_wrong = np.any(decoded != data, axis=1)
        else:
            is_detected = np.zeros(chunk, dtype=bool)
            data_wrong = np.zeros(chunk, dtype=bool)
            for index in range(chunk):
                received = code.encode(data[index]) ^ errors[index]
                result = code.decode(received)
                is_detected[index] = result.outcome is DecodeOutcome.DETECTED
                data_wrong[index] = not np.array_equal(
                    result.data, data[index]
                )
        detected += int(np.count_nonzero(is_detected))
        wrong += int(np.count_nonzero(data_wrong))
        silent_wrong += int(np.count_nonzero(data_wrong & ~is_detected))
        done += chunk

    recorder = obs.active()
    if recorder.enabled:
        scheme = type(code).__name__
        recorder.counter_add(
            "ecc.decode.batched" if batched else "ecc.decode.scalar", trials
        )
        recorder.counter_add(f"ecc.{scheme}.trials", trials)
        recorder.counter_add(f"ecc.{scheme}.uncorrectable", wrong)
        recorder.counter_add(f"ecc.{scheme}.undetectable", silent_wrong)
        recorder.counter_add(f"ecc.{scheme}.detected", detected)

    return MonteCarloOutcome(
        scheme=type(code).__name__,
        trials=trials,
        uncorrectable=wrong / trials,
        undetectable=silent_wrong / trials,
        detected=detected / trials,
    )


def default_codec(scheme: str) -> EccCode:
    """Instantiate the codec for a Table 3 scheme name."""
    key = scheme.strip().lower()
    if key == "sec":
        return Sec72()
    if key == "secded":
        return Secded72()
    if key in ("ssc", "chipkill", "chipkill-like (ssc)"):
        return ChipkillSsc()
    raise EccError(f"unknown ECC scheme {scheme!r}")
