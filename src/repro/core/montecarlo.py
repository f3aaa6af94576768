"""Minimum-RDT identification analysis (paper Sec. 5.1, Figs. 8 and 25).

The paper asks: given a series of M RDT measurements, what is the chance
that N < M uniformly chosen measurements contain the series minimum, and how
much higher than the true minimum is the best value those N measurements are
expected to find?

The paper answers with 10 000-iteration Monte Carlo simulations. Because
sampling N of M values without replacement is hypergeometric, both
quantities also have closed forms, which this module computes exactly
(deterministic and fast enough to sweep every row). The paper's Monte
Carlo procedure is the tests' check on them (``tests/differential/
harness.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from repro.core.series import RdtSeries
from repro.errors import MeasurementError

#: The N values plotted in Figs. 8 and 25.
STANDARD_N_VALUES = (1, 3, 5, 10, 50, 500)


def _log_comb(n: np.ndarray, k: float) -> np.ndarray:
    """log C(n, k) with C(n, k) = 0 for n < k handled by the caller."""
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _sorted_valid(values: np.ndarray) -> np.ndarray:
    """The non-NaN values, sorted ascending, in a fresh array."""
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    data.sort()
    return data


def _check_subset(m: int, n: int) -> None:
    if m == 0:
        raise MeasurementError("empty series")
    if not 1 <= n <= m:
        raise MeasurementError(f"subset size {n} must be in [1, {m}]")


def _probability_of_min_sorted(
    sorted_values: np.ndarray, n: int, within: float
) -> float:
    m = sorted_values.size
    _check_subset(m, n)
    if within < 0:
        raise MeasurementError("margin must be >= 0")
    threshold = sorted_values[0] * (1.0 + within)
    k = int(np.searchsorted(sorted_values, threshold, side="right"))
    if m - k < n:
        return 1.0
    log_miss = float(
        _log_comb(np.array(m - k, dtype=float), float(n))
        - _log_comb(np.array(m, dtype=float), float(n))
    )
    return 1.0 - float(np.exp(log_miss))


def probability_of_min(
    values: np.ndarray, n: int, within: float = 0.0
) -> float:
    """Exact P(an N-subset contains a value within ``within`` of the min).

    With M measurements of which k lie at or below ``min * (1 + within)``,
    a uniform N-subset without replacement misses all k with probability
    C(M-k, N) / C(M, N).
    """
    return _probability_of_min_sorted(_sorted_valid(values), n, within)


def _normalized_mins(
    sorted_values: np.ndarray, n_values: Sequence[int]
) -> List[float]:
    """E[min of an N-subset] / (series minimum) of one sorted, NaN-free
    series, for each N.

    Let v_(1) <= ... <= v_(M) be the sorted series. The probability that a
    uniform N-subset avoids the j smallest values is
    S_j = C(M-j, N) / C(M, N); the subset minimum equals v_(j) with
    probability S_{j-1} - S_j, giving the expectation in closed form.

    ``log C(M-j, N) = lgamma(M-j+1) - lgamma(N+1) - lgamma(M-j-N+1)``, and
    ``lgamma(M-j-N+1)`` is the ``j + N`` entry of the same
    ``lgamma(M-j+1)`` table, so the table is built once per series and
    each N costs three subtractions, one ``exp`` and one dot product in
    two reused buffers.
    """
    m = sorted_values.size
    log_factorial = np.arange(m, -1, -1, dtype=float)  # M - j
    np.add(log_factorial, 1.0, out=log_factorial)
    gammaln(log_factorial, out=log_factorial)
    survival = np.empty(m + 1)
    weights = np.empty(m)
    results = []
    for n in n_values:
        _check_subset(m, n)
        # S_j is zero once fewer than N values remain (j > M - N).
        kept = m - n + 1
        log_s = survival[:kept]
        np.subtract(log_factorial[:kept], gammaln(n + 1.0), out=log_s)
        np.subtract(log_s, log_factorial[n:], out=log_s)
        np.subtract(
            log_s, _log_comb(np.array(m, dtype=float), float(n)), out=log_s
        )
        survival[kept:] = -np.inf
        np.exp(survival, out=survival)
        np.subtract(survival[:-1], survival[1:], out=weights)
        expectation = float(np.dot(weights, sorted_values))
        minimum = float(sorted_values[0])
        if minimum <= 0:
            raise MeasurementError("series minimum must be positive")
        results.append(expectation / minimum)
    return results


def expected_normalized_min(values: np.ndarray, n: int) -> float:
    """Exact E[min of an N-subset] / (series minimum); see
    :func:`_normalized_mins`."""
    return _normalized_mins(_sorted_valid(values), [n])[0]


@dataclass(frozen=True)
class MinRdtEstimate:
    """Per-(row, N) outcome of the Sec. 5.1 analysis."""

    n: int
    probability_of_min: float
    expected_normalized_min: float


def min_rdt_analysis(
    series: RdtSeries, n_values: Sequence[int] = STANDARD_N_VALUES
) -> Dict[int, MinRdtEstimate]:
    """Run the full Fig. 8 analysis for one series.

    The series is NaN-filtered and sorted once, and every N reuses one
    log-factorial table and two buffers (about four series-sized arrays
    in all).
    """
    sorted_values = np.sort(series.require_valid())
    ns = [n for n in n_values if n <= sorted_values.size]
    return {
        n: MinRdtEstimate(
            n=n,
            probability_of_min=_probability_of_min_sorted(
                sorted_values, n, 0.0
            ),
            expected_normalized_min=normalized,
        )
        for n, normalized in zip(ns, _normalized_mins(sorted_values, ns))
    }


def scatter_points(
    estimates: Sequence[Dict[int, MinRdtEstimate]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 8 bottom / Fig. 25: (probability, expected normalized min) per
    row at one N."""
    xs, ys = [], []
    for per_row in estimates:
        estimate = per_row.get(n)
        if estimate is None:
            continue
        xs.append(estimate.probability_of_min)
        ys.append(estimate.expected_normalized_min)
    return np.asarray(xs), np.asarray(ys)
