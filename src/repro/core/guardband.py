"""Guardband analyses (paper Sec. 6.3-6.4, Figs. 15 and 16).

Two experiments quantify whether a safety margin below the observed minimum
RDT protects against VRD:

* :func:`guardband_probability_analysis` — the Fig. 15 question: how likely
  are N measurements to land within X% of the 1000-measurement minimum?
* :func:`margin_bitflip_experiment` — the Fig. 16 question: measure a row's
  RDT a few times, then hammer it 10 000 times at a margin *below* the
  observed minimum and count the unique cells that still flip (feeding the
  ECC correctability analysis of Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.core.config import TestConfig
from repro.core.montecarlo import _log_comb
from repro.core.series import RdtSeries
from repro.dram.module import DramModule
from repro.errors import MeasurementError

#: Fig. 15's safety margins.
STANDARD_MARGINS = (0.10, 0.20, 0.30, 0.40, 0.50)

#: Most trials one :meth:`~repro.dram.faults.RowVrdProcess.trial_flip_series`
#: call resolves in :func:`margin_bitflip_experiment`; bounds the per-call
#: ``trials x (traps + weak cells)`` arrays.
TRIAL_CHUNK = 4096


@dataclass(frozen=True)
class GuardbandProbability:
    """One (margin, N) cell of the Fig. 15 analysis."""

    margin: float
    n: int
    mean_probability: float
    min_probability: float


def guardband_probability_analysis(
    series_list: Sequence[RdtSeries],
    margins: Sequence[float] = STANDARD_MARGINS,
    n_values: Sequence[int] = (1, 3, 5, 10, 50, 500),
) -> List[GuardbandProbability]:
    """Probability of finding the minimum RDT within a safety margin.

    For each margin and subset size N, aggregates the per-series exact
    probability that N uniformly chosen measurements contain a value within
    ``margin`` of the series minimum; reports the mean and the minimum
    across series (the circles and bars of Fig. 15).

    Each series is sorted once; every (margin, N) cell is then evaluated
    in O(1) from the sorted array (the within-margin count comes from one
    ``searchsorted`` per margin), replacing the per-cell O(M) scans of
    :func:`repro.core.montecarlo.probability_of_min` with the identical
    closed form — results are bit-identical to the per-cell route.
    """
    if not series_list:
        raise MeasurementError("need at least one series")
    sorted_values = [np.sort(series.require_valid()) for series in series_list]
    sizes = [values.size for values in sorted_values]
    output: List[GuardbandProbability] = []
    for margin in margins:
        if margin < 0:
            raise MeasurementError("margin must be >= 0")
        within_counts = [
            int(
                np.searchsorted(
                    values, values[0] * (1.0 + margin), side="right"
                )
            )
            for values in sorted_values
        ]
        for n in n_values:
            probabilities = []
            for m, k in zip(sizes, within_counts):
                if n > m:
                    continue
                if n < 1:
                    raise MeasurementError(
                        f"subset size {n} must be in [1, {m}]"
                    )
                if m - k < n:
                    probabilities.append(1.0)
                    continue
                log_miss = float(
                    _log_comb(np.array(m - k, dtype=float), float(n))
                    - _log_comb(np.array(m, dtype=float), float(n))
                )
                probabilities.append(1.0 - float(np.exp(log_miss)))
            if not probabilities:
                continue
            output.append(
                GuardbandProbability(
                    margin=margin,
                    n=n,
                    mean_probability=float(np.mean(probabilities)),
                    min_probability=float(np.min(probabilities)),
                )
            )
    return output


@dataclass
class MarginBitflipResult:
    """Outcome of hammering one row below its observed minimum RDT."""

    module_id: str
    bank: int
    row: int
    margin: float
    hammer_count: int
    trials: int
    #: Unique bit positions that flipped across all trials.
    unique_flips: Set[int] = field(default_factory=set)
    #: Trials on which at least one flip occurred.
    flipping_trials: int = 0

    @property
    def n_unique_flips(self) -> int:
        return len(self.unique_flips)

    def flips_by_chip(self, geometry) -> Dict[int, List[int]]:
        """Group the unique flips by module chip (Sec. 6.4's observation
        that flips spread over up to four chips)."""
        grouped: Dict[int, List[int]] = {}
        for bit in sorted(self.unique_flips):
            grouped.setdefault(geometry.chip_of_bit(bit), []).append(bit)
        return grouped

    def max_flips_per_codeword(self, codeword_data_bits: int = 64) -> int:
        """Worst-case unique flips landing in one ECC codeword's data bits."""
        if not self.unique_flips:
            return 0
        counts: Dict[int, int] = {}
        for bit in self.unique_flips:
            word = bit // codeword_data_bits
            counts[word] = counts.get(word, 0) + 1
        return max(counts.values())


def margin_bitflip_experiment(
    module: DramModule,
    row: int,
    config: TestConfig,
    margins: Sequence[float] = STANDARD_MARGINS,
    baseline_measurements: int = 5,
    trials: int = 10_000,
    bank: int = 0,
) -> List[MarginBitflipResult]:
    """The Sec. 6.4 experiment for one row.

    1. Measure the row's RDT ``baseline_measurements`` times (the paper uses
       5 to keep testing time reasonable) and take the minimum.
    2. For each margin, hammer the row ``trials`` times at
       ``min * (1 - margin)`` and record every unique cell that flips.

    Runs at the fault-model level (one latent sample + weak-cell evaluation
    per trial), which is exactly what a Bender trial at a fixed hammer count
    observes, without the per-trial row rewrites. Each margin's trials run
    through the device's
    :meth:`~repro.dram.faults.RowVrdProcess.trial_flip_series` kernel in
    chunks of at most :data:`TRIAL_CHUNK`, so memory stays bounded for any
    ``trials``; consecutive chunks are state- and stream-identical to one
    call.
    """
    if baseline_measurements < 1:
        raise MeasurementError("need at least one baseline measurement")
    if trials < 0:
        raise MeasurementError("trials must be >= 0")
    mapping = module.bank(bank).mapping
    physical = mapping.to_physical(row)
    process = module.fault_model.process(bank, physical)
    condition = config.condition(module.timing)

    baseline = process.latent_series(
        condition, baseline_measurements, stream="guardband-baseline"
    )
    observed_min = float(baseline.min())

    weak_bits = [int(bit) for bit in process.weak_cell_bits]
    results = []
    for margin in margins:
        if not 0.0 < margin < 1.0:
            raise MeasurementError(f"margin {margin} must be in (0, 1)")
        hammer_count = int(observed_min * (1.0 - margin))
        result = MarginBitflipResult(
            module_id=module.module_id,
            bank=bank,
            row=row,
            margin=margin,
            hammer_count=hammer_count,
            trials=trials,
        )
        flipped = np.zeros(len(weak_bits), dtype=bool)
        for start in range(0, trials, TRIAL_CHUNK):
            matrix = process.trial_flip_series(
                condition,
                float(hammer_count),
                min(TRIAL_CHUNK, trials - start),
            )
            result.flipping_trials += int(matrix.any(axis=1).sum())
            flipped |= matrix.any(axis=0)
        for column in np.nonzero(flipped)[0]:
            result.unique_flips.add(weak_bits[column])
        results.append(result)
    return results


def bit_error_rate(results: Sequence[MarginBitflipResult], row_bits: int) -> float:
    """Worst observed unique-flip density across rows (the paper derives a
    7.6e-5 BER from 5 flips in a 64 Kibit row)."""
    if not results:
        raise MeasurementError("need at least one result")
    worst = max(result.n_unique_flips for result in results)
    return worst / row_bits
