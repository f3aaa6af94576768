"""Predictability analyses (paper Finding 4 and footnote 2).

Two questions, made quantitative:

* **Can the next measurement be predicted?** :func:`prediction_gains`
  pits simple predictors (last value, running mean, AR(1), histogram
  mode) against the trivial constant-mean baseline. For an unpredictable
  series no predictor beats the baseline materially — the operational
  content of Finding 4.
* **When can testing stop?** :func:`record_minima` extracts the
  measurements where a *new* minimum appears. For an i.i.d. series the
  probability that measurement n sets a record is 1/n (classical record
  statistics), so records keep arriving at a slowly decaying rate forever
  — footnote 2's "one would not know when to stop testing", with math
  attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import MeasurementError


def _clean(values: np.ndarray) -> np.ndarray:
    data = np.asarray(values, dtype=float)
    data = data[~np.isnan(data)]
    if data.size < 10:
        raise MeasurementError("need at least 10 measurements")
    return data


# ----------------------------------------------------------------------
# One-step-ahead prediction
# ----------------------------------------------------------------------


def _mse(predictions: np.ndarray, actual: np.ndarray) -> float:
    return float(np.mean((predictions - actual) ** 2))


def prediction_gains(values: np.ndarray, warmup: int = 50) -> Dict[str, float]:
    """One-step-ahead MSE of simple predictors, normalized to the
    constant-mean baseline.

    Returns ``{predictor: relative_mse}``; 1.0 means no better than
    predicting the running mean, below ~0.95 would indicate exploitable
    temporal structure.
    """
    data = _clean(values)
    if data.size <= warmup + 10:
        raise MeasurementError("series too short for the chosen warmup")
    target = data[warmup:]
    n = data.size

    # Baseline: running mean of everything seen so far. running_mean[i]
    # is the mean of data[:i+1], the causal prediction for data[i+1].
    cumsum = np.cumsum(data)
    running_mean = cumsum[:-1] / np.arange(1, n)
    baseline = running_mean[warmup - 1:]
    baseline_mse = _mse(baseline, target)
    if baseline_mse == 0:
        raise MeasurementError("constant series: prediction is trivial")

    gains: Dict[str, float] = {}

    # Last value.
    gains["last_value"] = _mse(data[warmup - 1:-1], target) / baseline_mse

    # AR(1) fitted on the warmup prefix, applied causally.
    prefix = data[:warmup]
    centered = prefix - prefix.mean()
    denom = float(np.dot(centered[:-1], centered[:-1]))
    phi = float(np.dot(centered[:-1], centered[1:])) / denom if denom else 0.0
    mean = prefix.mean()
    ar1 = mean + phi * (data[warmup - 1:-1] - mean)
    gains["ar1"] = _mse(ar1, target) / baseline_mse

    # The histogram mode of everything seen so far (cheap online mode).
    modes = np.empty(target.size)
    counts: Dict[float, int] = {}
    best_value, best_count = data[0], 0
    for index in range(warmup):
        counts[data[index]] = counts.get(data[index], 0) + 1
        if counts[data[index]] > best_count:
            best_count = counts[data[index]]
            best_value = data[index]
    for offset in range(target.size):
        modes[offset] = best_value
        value = data[warmup + offset]
        counts[value] = counts.get(value, 0) + 1
        if counts[value] > best_count:
            best_count = counts[value]
            best_value = value
    gains["histogram_mode"] = _mse(modes, target) / baseline_mse

    return gains


# ----------------------------------------------------------------------
# Record (running-minimum) statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecordAnalysis:
    """Where a series set new minima, with the i.i.d. reference."""

    record_indices: List[int]  # 0-based measurement indices of new minima
    n: int

    @property
    def n_records(self) -> int:
        return len(self.record_indices)

    @property
    def expected_records_iid(self) -> float:
        """E[#records] for an i.i.d. continuous series: the harmonic sum."""
        return float(np.sum(1.0 / np.arange(1, self.n + 1)))


def record_minima(values: np.ndarray) -> RecordAnalysis:
    """Indices where the running minimum strictly improves.

    Index 0 always counts (the first value is a record). Quantized series
    use strict improvement, so re-hitting the current minimum is not a
    record.
    """
    data = _clean(values)
    running = np.minimum.accumulate(data)
    records = [0]
    for index in range(1, data.size):
        if data[index] < running[index - 1]:
            records.append(index)
    return RecordAnalysis(record_indices=records, n=int(data.size))


def stopping_time_quantiles(
    analyses: "List[RecordAnalysis]", quantiles=(0.5, 0.9, 0.99)
) -> Dict[float, float]:
    """Distribution of the *last* record index across many rows.

    The last record is when testing "found" the series minimum; its upper
    quantiles are how long a profiler must run to have seen most rows'
    minima — and under VRD there is no finite bound (Takeaway 2).
    """
    if not analyses:
        raise MeasurementError("need at least one analysis")
    last_records = np.array(
        [analysis.record_indices[-1] for analysis in analyses], dtype=float
    )
    return {
        q: float(np.quantile(last_records, q)) for q in quantiles
    }
