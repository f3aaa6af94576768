"""Characterization campaigns (paper Sec. 5).

A campaign measures RDT series for many rows of a module across a grid of
test configurations, reproducing the paper's protocol:

* **row selection** — probe the first, middle, and last 1024 rows of a bank
  ten times each and keep the 50 most vulnerable rows per block;
* **measurement** — 1000 RDT measurements per row per configuration;
* **aggregation** — CVs, expected-normalized-minimum distributions, and the
  per-module summaries behind Figs. 7, 9, 10, 11, 12 and Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TestConfig
from repro.core.montecarlo import STANDARD_N_VALUES, min_rdt_analysis
from repro.core.rdt import FastRdtMeter
from repro.core.series import RdtSeries
from repro.dram.module import DramModule
from repro.errors import MeasurementError


def select_vulnerable_rows(
    module: DramModule,
    config: TestConfig,
    bank: int = 0,
    block_rows: int = 1024,
    per_block: int = 50,
    probe_repeats: int = 10,
) -> List[int]:
    """The paper's row-selection protocol.

    Probes each row in the first, middle, and last ``block_rows`` rows of
    the bank ``probe_repeats`` times and returns the ``per_block`` rows with
    the smallest mean RDT from each block.

    Each block is probed in one
    :meth:`~repro.core.rdt.FastRdtMeter.guess_rdt_batch` call, which is
    bit-identical to per-row ``guess_rdt`` probing (the differential
    harness's ``campaign`` pair holds them equal).
    """
    n_rows = module.geometry.n_rows
    if block_rows > n_rows:
        raise MeasurementError(
            f"block of {block_rows} rows exceeds bank size {n_rows}"
        )
    meter = FastRdtMeter(module, bank)
    middle_start = max(0, n_rows // 2 - block_rows // 2)
    blocks = (
        range(0, block_rows),
        range(middle_start, middle_start + block_rows),
        range(n_rows - block_rows, n_rows),
    )
    selected: List[int] = []
    seen = set()
    for block in blocks:
        probe_rows = [row for row in block if row not in seen]
        guesses = meter.guess_rdt_batch(
            probe_rows, config, repeats=probe_repeats
        )
        means = [(float(guess), row) for guess, row in zip(guesses, probe_rows)]
        means.sort()
        for _, row in means[:per_block]:
            selected.append(row)
            seen.add(row)
    return selected


@dataclass
class RowObservation:
    """One (row, configuration) measurement series."""

    module_id: str
    bank: int
    row: int
    config: TestConfig
    series: RdtSeries


@dataclass
class CampaignResult:
    """All observations of one campaign plus aggregation helpers."""

    module_id: str
    observations: List[RowObservation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.observations)

    # ------------------------------------------------------------------
    # Groupings
    # ------------------------------------------------------------------

    def rows(self) -> List[int]:
        return sorted({obs.row for obs in self.observations})

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    def max_cv_per_row(self) -> Dict[int, float]:
        """Fig. 7a: the maximum CV of each row across all configurations."""
        per_row: Dict[int, float] = {}
        for obs in self.observations:
            cv = obs.series.cv
            if cv > per_row.get(obs.row, -1.0):
                per_row[obs.row] = cv
        return per_row

    def cv_s_curve(self) -> np.ndarray:
        """Rows sorted by increasing maximum CV (Fig. 7a's S-curve)."""
        return np.sort(np.array(list(self.max_cv_per_row().values())))

    def fraction_always_varying(self) -> float:
        """Finding 6: fraction of rows with a non-constant series under
        *every* tested configuration."""
        constant_rows = set()
        all_rows = set()
        for obs in self.observations:
            all_rows.add(obs.row)
            if obs.series.is_constant():
                constant_rows.add(obs.row)
        if not all_rows:
            raise MeasurementError("campaign has no observations")
        return 1.0 - len(constant_rows) / len(all_rows)

    def min_rdt_distributions(
        self,
        n_values: Sequence[int] = STANDARD_N_VALUES,
        predicate: Optional[Callable[[RowObservation], bool]] = None,
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """The box-plot samples behind Figs. 8-12: for each N, the
        P(find min) and E[min]/min arrays with one value per observation
        (row x configuration). Series with fewer than N valid values are
        skipped. Each series is sorted once for all N
        (:func:`~repro.core.montecarlo.min_rdt_analysis`)."""
        per_n: Dict[int, Tuple[List[float], List[float]]] = {
            n: ([], []) for n in n_values
        }
        for obs in self.observations:
            if predicate is not None and not predicate(obs):
                continue
            for n, estimate in min_rdt_analysis(obs.series, n_values).items():
                probabilities, normalized = per_n[n]
                probabilities.append(estimate.probability_of_min)
                normalized.append(estimate.expected_normalized_min)
        return {
            n: (np.asarray(probabilities), np.asarray(normalized))
            for n, (probabilities, normalized) in per_n.items()
        }


class Campaign:
    """Runs the Sec. 5 protocol on one module.

    Args:
        module: Device under test.
        configs: The test-configuration grid.
        n_measurements: Series length per (row, configuration); the paper
            uses 1000.
        bank: Bank under test.
        set_temperature: Optional callback (e.g. the Bender host's
            temperature control) invoked before measuring each
            configuration; defaults to setting the module directly.

    Each configuration's rows are measured per bank through
    :meth:`~repro.core.rdt.FastRdtMeter.measure_series_batch` (the packed
    device fast path), bit-identical to a per-row ``guess_rdt`` +
    ``measure_series`` loop (the differential harness's ``campaign``
    pair).
    """

    def __init__(
        self,
        module: DramModule,
        configs: Sequence[TestConfig],
        n_measurements: int = 1000,
        bank: int = 0,
        set_temperature: Optional[Callable[[float], None]] = None,
    ):
        if n_measurements < 2:
            raise MeasurementError("campaigns need at least 2 measurements")
        self.module = module
        self.configs = list(configs)
        self.n_measurements = n_measurements
        self.bank = bank
        self._set_temperature = set_temperature or module.set_temperature

    @property
    def protocol(self) -> str:
        """DRAM protocol of the device under test (``"DDR4"``,
        ``"DDR5"``, or ``"HBM2"``)."""
        return self.module.protocol

    def run(self, rows: Iterable[int]) -> CampaignResult:
        """Measure every (row, configuration) pair on the default bank."""
        return self.run_pairs((self.bank, row) for row in rows)

    def run_pairs(
        self, pairs: Iterable["tuple[int, int]"]
    ) -> CampaignResult:
        """Measure every ((bank, row), configuration) pair.

        The multi-bank form serves the paper's HBM2 protocol, where the
        tested rows span three channels (banks of the simulated module).
        """
        result = CampaignResult(module_id=self.module.module_id)
        pairs = list(pairs)
        if not pairs:
            raise MeasurementError("campaign needs at least one row")
        # One bulk probe + bulk latent-series query per bank and
        # configuration; the per-bank iterators hand results back in pair
        # order (duplicate pairs re-measure identically — streams are
        # deterministic — so positional pairing is exact).
        per_bank: Dict[int, List[int]] = {}
        for bank, row in pairs:
            per_bank.setdefault(bank, []).append(row)
        meters = {bank: FastRdtMeter(self.module, bank) for bank in per_bank}
        for config in self.configs:
            self._set_temperature(config.temperature_c)
            queues = {
                bank: iter(
                    meters[bank].measure_series_batch(
                        bank_rows, config, self.n_measurements
                    )
                )
                for bank, bank_rows in per_bank.items()
            }
            for bank, row in pairs:
                series = next(queues[bank])
                if series.n_failed_sweeps == len(series):
                    # Row never flipped inside the sweep under this
                    # configuration; record nothing, as the paper's test
                    # loop writes no RDT for such sweeps.
                    continue
                result.observations.append(
                    RowObservation(
                        module_id=self.module.module_id,
                        bank=bank,
                        row=row,
                        config=config,
                        series=series,
                    )
                )
        return result
