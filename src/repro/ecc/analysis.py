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
codecs against ground truth. Its transient memory is set by two fixed
constants, not by the trial count: per chunk of ``_MC_CHUNK`` trials it
draws one ``(chunk, k_bits)`` data batch, then fills one reused
``(_MC_BLOCK, n_bits)`` uniform buffer block after block. Row-major
consecutive ``random`` calls consume the stream exactly as one
``(chunk, n_bits)`` call does, so a seed yields the same trials as one
whole-chunk draw would. Only codewords that took an error are encoded and
decoded: a clean codeword of these linear codes decodes CLEAN to its own
data, so skipping it changes no tally.

Both entry points share one input rule: the bit error rate is a number in
``[0, 1]`` (NaN is rejected), and the trial count an integer >= 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.special._ufuncs import _binom_sf

from repro import obs
from repro.ecc.base import OUTCOME_DETECTED, EccCode
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


def _check_ber(ber: float) -> None:
    """The bit error rate rule of both entry points: in ``[0, 1]``, not
    NaN (every comparison with NaN is false)."""
    if not 0.0 <= ber <= 1.0:
        raise EccError(f"bit error rate {ber} outside [0, 1]")


def _at_least(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) >= k) for a probability ``p`` in ``[0, 1]``.

    Calls the Boost kernel ``scipy.stats.binom.sf`` wraps, with the
    wrapper's support rule (the raw kernel returns NaN at both edges)."""
    if k <= 0:
        return 1.0
    if k - 1 >= n:
        return 0.0
    return float(np.clip(_binom_sf(k - 1, n, p), 0.0, 1.0))


def outcome_probabilities(scheme: str, ber: float) -> EccOutcomeProbabilities:
    """Closed-form Table 3 entry for one scheme at a bit error rate."""
    _check_ber(ber)
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
#: than tunable because the chunk boundaries define the RNG draw order:
#: each chunk draws one ``(chunk, k_bits)`` uint8 data batch, then the
#: chunk's ``(chunk, n_bits)`` uniforms. The data draw is never split —
#: bounded uint8 ``integers`` buffers 32-bit words within one call, so two
#: smaller calls are not one larger call — and never interleaved with the
#: uniforms.
_MC_CHUNK = 32_768

#: Rows per uniform block inside a chunk. The chunk's uniforms are drawn
#: into one reused ``(_MC_BLOCK, n_bits)`` buffer, block after block in row
#: order; float64 ``random`` buffers nothing between calls, so the blocks
#: reproduce one ``(chunk, n_bits)`` draw value for value. The buffer, not
#: the trial count, bounds the transient memory.
_MC_BLOCK = 2_048


def _chunk_tallies(
    code: EccCode,
    ber: float,
    chunk: int,
    rng: np.random.Generator,
    uniforms: np.ndarray,
    flips: np.ndarray,
) -> np.ndarray:
    """Draw and classify one chunk of trials.

    Returns ``[decoded rows, wrong, silent wrong, detected]``. The chunk's
    data batch lives only for this call, so two chunks' data never
    coexist; ``uniforms`` and ``flips`` are the reused block buffers.
    """
    tallies = np.zeros(4, dtype=np.int64)
    data = rng.integers(0, 2, (chunk, code.k_bits), dtype=np.uint8)
    for first in range(0, chunk, _MC_BLOCK):
        rows = min(_MC_BLOCK, chunk - first)
        rng.random(out=uniforms[:rows])
        errors = np.less(uniforms[:rows], ber, out=flips[:rows])
        hit = np.flatnonzero(errors.any(axis=1))
        if not hit.size:
            continue
        truth = data[first + hit]
        decoded, outcomes = code.decode_batch(
            code.encode_batch(truth) ^ errors[hit]
        )
        is_detected = outcomes == OUTCOME_DETECTED
        data_wrong = np.any(decoded != truth, axis=1)
        tallies += (
            hit.size,
            np.count_nonzero(data_wrong),
            np.count_nonzero(data_wrong & ~is_detected),
            np.count_nonzero(is_detected),
        )
    return tallies


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
    error masks in blocks of ``_MC_BLOCK`` rows); only rows whose mask has
    a set bit are encoded and decoded, through ``encode_batch`` and
    ``decode_batch``.
    """
    _check_ber(ber)
    if (
        not isinstance(trials, numbers.Integral)
        or isinstance(trials, bool)
        or trials < 1
    ):
        raise EccError(f"trials must be an integer >= 1, got {trials!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    uniforms = np.empty((min(_MC_BLOCK, trials), code.n_bits))
    flips = np.empty(uniforms.shape, dtype=bool)
    tallies = sum(
        _chunk_tallies(
            code, ber, min(_MC_CHUNK, trials - done), rng, uniforms, flips
        )
        for done in range(0, trials, _MC_CHUNK)
    )
    decoded_rows, wrong, silent_wrong, detected = (int(t) for t in tallies)

    recorder = obs.active()
    if recorder.enabled:
        scheme = type(code).__name__
        recorder.counter_add(f"ecc.{scheme}.trials", trials)
        recorder.counter_add(f"ecc.{scheme}.decoded", decoded_rows)
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
