"""Statistical analyses of RDT series (paper Sec. 4 and 4.1).

Implements exactly the analyses the paper runs on its measurement series:

* run lengths of constant RDT (Fig. 5 and Finding 3);
* unique-value histograms (Fig. 4 and Finding 2);
* chi-square goodness-of-fit against a derived normal distribution
  (Sec. 4.1's histogram interpretation);
* the autocorrelation function and white-noise comparison (Fig. 6 and
  Finding 4);
* box-and-whisker summaries (Fig. 3 and most later figures).

Distribution functions call the ``scipy.special`` kernels that
``scipy.stats`` wraps (``ndtr``, ``ndtri``, ``chdtrc``), bit-identical to
the wrappers on this module's arguments, so importing it never loads
``scipy.stats`` or ``scipy.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import special

from repro.errors import MeasurementError

#: Values per block of the block-wise counts.
_BLOCK = 1 << 16


def run_lengths(values: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of identical consecutive values.

    >>> run_lengths(np.array([5.0, 5.0, 7.0, 5.0]))
    array([2, 1, 1])
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return np.zeros(0, dtype=int)
    changes = np.nonzero(data[1:] != data[:-1])[0]
    boundaries = np.concatenate(([0], changes + 1, [data.size]))
    return np.diff(boundaries).astype(int)


def run_length_histogram(values: np.ndarray) -> Dict[int, int]:
    """Histogram of run lengths, Fig. 5 style (x = consecutive identical
    measurements, y = occurrences)."""
    lengths = run_lengths(values)
    unique, counts = np.unique(lengths, return_counts=True)
    return {int(length): int(count) for length, count in zip(unique, counts)}


def fraction_single_measurement_changes(values: np.ndarray) -> float:
    """Fraction of RDT states held for exactly one measurement.

    Finding 3 reports 79.0% of state changes happen after every
    measurement, i.e. most runs have length 1. Equal to the fraction of
    :func:`run_lengths` equal to one, counted block by block: a run starts
    at each run boundary, and a one-measurement run is a start followed
    by another boundary.
    """
    data = np.asarray(values, dtype=float)
    n = data.size
    if n == 0:
        raise MeasurementError("cannot analyze an empty series")
    runs = singles = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # boundary[k - start] for k in [start, stop]: a run starts at k,
        # or k == n closes the last one.
        boundary = np.ones(stop - start + 1, dtype=bool)
        first, last = max(start, 1), min(stop, n - 1)
        if last >= first:
            boundary[first - start:last - start + 1] = (
                data[first - 1:last] != data[first:last + 1]
            )
        starts = boundary[:-1]
        runs += int(starts.sum())
        singles += int((starts & boundary[1:]).sum())
    return float(np.int64(singles) / np.int64(runs))


def histogram_unique_bins(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 4's histogram: bin count = number of unique measured values.

    Returns:
        ``(counts, edges)`` with equal-width bins spanning [min, max].
    """
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    if data.size == 0:
        raise MeasurementError("cannot histogram an empty series")
    n_unique = np.unique(data).size
    if n_unique == 1:
        value = data[0]
        return np.array([data.size]), np.array([value - 0.5, value + 0.5])
    counts, edges = np.histogram(data, bins=n_unique)
    return counts, edges


def coefficient_of_variation(values: np.ndarray) -> float:
    """Standard deviation normalized to the mean."""
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    if data.size == 0:
        raise MeasurementError("cannot compute CV of an empty series")
    mean = data.mean()
    if mean == 0:
        raise MeasurementError("cannot compute CV of a zero-mean series")
    return float(data.std() / mean)


def chi_square_normal_fit(
    values: np.ndarray,
    min_expected: float = 5.0,
    trim_sigmas: Optional[float] = None,
) -> Tuple[float, float]:
    """Chi-square goodness-of-fit of a series against the derived normal.

    Follows the paper's Sec. 4.1 procedure: derive mean and standard
    deviation from the measurements, bin the observations (unique-value
    bins, then merged so each expected count is at least ``min_expected``),
    and test the null hypothesis that the measurements follow that normal
    distribution. Degrees of freedom subtract the two estimated parameters.

    Args:
        trim_sigmas: When set, restrict the test to the bulk of the
            distribution (observations within this many initial standard
            deviations of the mean). Useful to ask whether the *everyday*
            RDT behavior is normal irrespective of the rare deep
            excursions that define the series minimum.

    Returns:
        ``(statistic, p_value)``. A p-value above the significance level
        means the normal hypothesis cannot be rejected.
    """
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    if trim_sigmas is not None:
        if trim_sigmas <= 0:
            raise MeasurementError("trim_sigmas must be positive")
        center = data.mean()
        spread = data.std(ddof=1)
        data = data[np.abs(data - center) <= trim_sigmas * spread]
    if data.size < 8:
        raise MeasurementError("chi-square fit needs at least 8 measurements")
    mean = data.mean()
    std = data.std(ddof=1)
    if std == 0:
        raise MeasurementError("chi-square fit is undefined for constant data")

    # One bin per unique measured value, with edges at the midpoints
    # between consecutive values. (Equal-width binning aliases against the
    # discrete measurement grid and would reject even perfect normals.)
    unique, counts = np.unique(data, return_counts=True)
    if unique.size < 2:
        raise MeasurementError("chi-square fit is undefined for constant data")
    midpoints = (unique[:-1] + unique[1:]) / 2.0
    edges = np.concatenate(
        ([unique[0] - (midpoints[0] - unique[0])], midpoints,
         [unique[-1] + (unique[-1] - midpoints[-1])])
    )
    # Expected probabilities per bin under the derived normal; the outer
    # tails are folded into the edge bins so probabilities sum to 1.
    cdf = special.ndtr((edges - mean) / std)
    probabilities = np.diff(cdf)
    probabilities[0] += cdf[0]
    probabilities[-1] += 1.0 - cdf[-1]
    expected = probabilities * data.size

    # Merge adjacent bins until every expected count clears the floor.
    merged_observed = []
    merged_expected = []
    acc_obs = 0.0
    acc_exp = 0.0
    for observed_count, expected_count in zip(counts, expected):
        acc_obs += observed_count
        acc_exp += expected_count
        if acc_exp >= min_expected:
            merged_observed.append(acc_obs)
            merged_expected.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0 and merged_expected:
        merged_observed[-1] += acc_obs
        merged_expected[-1] += acc_exp
    elif acc_exp > 0:
        merged_observed.append(acc_obs)
        merged_expected.append(acc_exp)

    observed_arr = np.asarray(merged_observed)
    expected_arr = np.asarray(merged_expected)
    if observed_arr.size < 4:
        raise MeasurementError(
            "too few populated bins for a meaningful chi-square test"
        )
    statistic = float(((observed_arr - expected_arr) ** 2 / expected_arr).sum())
    dof = observed_arr.size - 1 - 2  # two parameters estimated from data
    if dof < 1:
        raise MeasurementError("non-positive degrees of freedom")
    p_value = float(special.chdtrc(dof, statistic))
    return statistic, p_value


def _next_fast_len(target: int) -> int:
    """Smallest 2·3·5-smooth integer >= ``target``: the sizes a real FFT
    factors fastest (``scipy.fft.next_fast_len(target, real=True)``)."""
    if target <= 6:
        return target
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest power-of-two multiple of p35 reaching target.
            quotient = -(-target // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _autocorrelation_direct(
    centered: np.ndarray, variance: float, max_lag: int
) -> np.ndarray:
    """The direct (definitional) ACF estimator: one lagged dot product per
    lag. O(n * max_lag); kept as the specification the FFT path is tested
    against."""
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for lag in range(1, max_lag + 1):
        acf[lag] = float(np.dot(centered[:-lag], centered[lag:])) / variance
    return acf


def autocorrelation(values: np.ndarray, max_lag: int = 100) -> np.ndarray:
    """Sample autocorrelation function for lags 0..max_lag (Fig. 6).

    Uses the standard biased estimator (normalization by n), matching the
    convention of the time-series literature the paper cites. Computed via
    the Wiener-Khinchin theorem — the autocovariance is the inverse FFT of
    the zero-padded periodogram — in O(n log n) instead of the direct
    estimator's O(n * max_lag) lagged dot products;
    ``tests/core/test_stats.py`` asserts agreement with the direct formula
    (:func:`_autocorrelation_direct`) to float tolerance.
    """
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    n = data.size
    if n < 2:
        raise MeasurementError("autocorrelation needs at least 2 points")
    if max_lag >= n:
        raise MeasurementError(f"max_lag {max_lag} must be below series length {n}")
    centered = data - data.mean()
    variance = float(np.dot(centered, centered))
    if variance == 0:
        raise MeasurementError("autocorrelation undefined for constant data")
    # Zero-pad to at least n + max_lag so the circular convolution's
    # wrap-around never reaches the lags we keep; next_fast_len picks a
    # fast FFT size at or above that.
    size = _next_fast_len(n + max_lag)
    spectrum = np.fft.rfft(centered, size)
    power = spectrum.real**2 + spectrum.imag**2
    acov = np.fft.irfft(power, size)[: max_lag + 1]
    acf = acov / variance
    acf[0] = 1.0  # exact by definition; spare it the FFT round-trip error
    return acf


def white_noise_acf_bound(n: int, confidence: float = 0.95) -> float:
    """Large-sample ACF confidence bound for white noise: z / sqrt(n)."""
    if n < 2:
        raise MeasurementError("need at least 2 points")
    if not 0.0 < confidence < 1.0:
        raise MeasurementError(f"confidence must be in (0, 1), got {confidence}")
    z = special.ndtri(0.5 + confidence / 2.0)
    return float(z / np.sqrt(n))


def acf_indistinguishable_from_noise(
    values: np.ndarray,
    max_lag: int = 50,
    confidence: float = 0.95,
    tolerated_excess: float = 0.1,
) -> bool:
    """Fig. 6's conclusion as a predicate.

    True when at most ``tolerated_excess`` of the nonzero lags fall outside
    the white-noise confidence band (5% are expected outside by chance at
    95% confidence).
    """
    acf = autocorrelation(values, max_lag)
    bound = white_noise_acf_bound(len(np.asarray(values)), confidence)
    outside = np.abs(acf[1:]) > bound
    return float(outside.mean()) <= tolerated_excess


def ljung_box_test(
    values: np.ndarray, lags: int = 20
) -> Tuple[float, float]:
    """Ljung-Box portmanteau test for joint autocorrelation.

    Complements Fig. 6's per-lag inspection: tests the null hypothesis
    that the first ``lags`` autocorrelations are jointly zero (the series
    is white noise). A large p-value supports the paper's Finding 4
    (unpredictability).

    Returns:
        ``(Q statistic, p_value)``.
    """
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    n = data.size
    if lags < 1:
        raise MeasurementError("need at least one lag")
    if n <= lags + 1:
        raise MeasurementError("series too short for the requested lags")
    acf = autocorrelation(data, max_lag=lags)
    # Vectorized lag sum: sum_k acf_k^2 / (n - k) as one weighted dot.
    weights = 1.0 / (n - np.arange(1, lags + 1))
    q = n * (n + 2.0) * float(acf[1:] ** 2 @ weights)
    p_value = float(special.chdtrc(lags, q))
    return q, p_value


def periodogram(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Power spectral density estimate of a measurement series.

    A hidden periodic disturbance pattern (e.g. a refresh-synchronized
    mechanism) would concentrate power at its frequency; VRD series show a
    flat (white) spectrum.

    Returns:
        ``(frequencies, power)`` for frequencies in (0, 0.5] cycles per
        measurement, with the series mean removed.
    """
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    n = data.size
    if n < 8:
        raise MeasurementError("periodogram needs at least 8 points")
    centered = data - data.mean()
    spectrum = np.fft.rfft(centered)
    power = (np.abs(spectrum) ** 2) / n
    frequencies = np.fft.rfftfreq(n)
    return frequencies[1:], power[1:]


def spectral_flatness(values: np.ndarray) -> float:
    """Geometric-to-arithmetic mean ratio of the periodogram, in (0, 1].

    1.0 is perfectly flat (white noise); strong periodicities push it
    toward 0. Sample white noise scores ~0.5-0.6 because raw periodogram
    bins are chi-square(2) distributed, so compare against a white-noise
    reference rather than 1.0.
    """
    _, power = periodogram(values)
    positive = power[power > 0]
    if positive.size == 0:
        raise MeasurementError("degenerate spectrum")
    log_mean = float(np.mean(np.log(positive)))
    return float(np.exp(log_mean) / np.mean(positive))


@dataclass(frozen=True)
class BoxStats:
    """Box-and-whiskers summary used by most of the paper's figures."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def row(self) -> Tuple[float, float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum, self.mean)


def box_stats(values: np.ndarray) -> BoxStats:
    """Compute the paper's box-plot summary of a sample."""
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    if data.size == 0:
        raise MeasurementError("cannot summarize an empty sample")
    q1, median, q3 = np.percentile(data, [25, 50, 75])
    return BoxStats(
        minimum=float(data.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(data.max()),
        mean=float(data.mean()),
    )
