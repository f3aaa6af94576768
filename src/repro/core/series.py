"""RDT measurement series and their summary statistics.

An :class:`RdtSeries` is the primary data artifact of the whole study: the
ordered outcomes of repeated RDT measurements of one DRAM row under one test
configuration. Entries are hammer counts on the measurement grid, or NaN for
sweeps that exhausted the grid without observing a bitflip.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import MeasurementError

#: Values per block of the block-wise statistics.
_BLOCK = 1 << 16


@dataclass
class RdtSeries:
    """Ordered RDT measurements of one row under one configuration."""

    values: np.ndarray
    module_id: str = ""
    bank: int = 0
    row: int = 0
    config_label: str = ""
    grid_step: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise MeasurementError("an RDT series must be one-dimensional")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def valid(self) -> np.ndarray:
        """Measurements that observed a bitflip (non-NaN).

        A read-only view of :attr:`values` when no sweep failed, so the
        statistics below make no full-size copy of a long series.
        """
        failed = np.isnan(self.values)
        if failed.any():
            return self.values[~failed]
        view = self.values.view()
        view.flags.writeable = False
        return view

    @property
    def n_failed_sweeps(self) -> int:
        """Sweeps that exhausted the hammer-count grid without a flip."""
        return int(np.isnan(self.values).sum())

    def require_valid(self) -> np.ndarray:
        data = self.valid
        if data.size == 0:
            raise MeasurementError(
                f"series {self.module_id}/b{self.bank}/r{self.row} has no "
                "valid measurements"
            )
        return data

    # ------------------------------------------------------------------
    # Summary statistics used throughout the paper
    # ------------------------------------------------------------------

    @property
    def min(self) -> float:
        return float(self.require_valid().min())

    @property
    def max(self) -> float:
        return float(self.require_valid().max())

    @property
    def mean(self) -> float:
        return float(self.require_valid().mean())

    @property
    def std(self) -> float:
        return float(self.require_valid().std())

    @property
    def cv(self) -> float:
        """Coefficient of variation: std normalized to the mean (Sec. 5.1)."""
        data = self.require_valid()
        mean = data.mean()
        if mean == 0:
            raise MeasurementError("cannot compute CV of a zero-mean series")
        return float(data.std() / mean)

    @property
    def max_to_min_ratio(self) -> float:
        """How far apart the extremes are (Finding 5: up to 3.5x)."""
        return self.max / self.min

    @property
    def n_unique(self) -> int:
        """Distinct measured RDT values (Finding 2: multiple states),
        merged block by block so memory follows the distinct values."""
        data = self.require_valid()
        seen = np.unique(data[:_BLOCK])
        for start in range(_BLOCK, data.size, _BLOCK):
            seen = np.union1d(seen, data[start:start + _BLOCK])
        return int(seen.size)

    @property
    def min_count(self) -> int:
        """How many measurements hit the series minimum (Finding 7)."""
        data = self.require_valid()
        return int((data == data.min()).sum())

    def first_min_index(self) -> int:
        """Measurement index where the series minimum first appears.

        Fig. 1's headline: the smallest RDT can appear only after tens of
        thousands of measurements.
        """
        data = self.values
        minimum = self.min
        indices = np.nonzero(data == minimum)[0]
        return int(indices[0])

    def is_constant(self) -> bool:
        """True when every valid measurement yielded the same value."""
        return self.n_unique == 1

    # ------------------------------------------------------------------
    # Windowed views (Fig. 1 style)
    # ------------------------------------------------------------------

    def windowed(self, window: int = 1000) -> "list[tuple[float, float, float]]":
        """(mean, min, max) per consecutive window, as plotted in Fig. 1."""
        if window <= 0:
            raise MeasurementError("window must be positive")
        output = []
        for start in range(0, len(self), window):
            chunk = self.values[start:start + window]
            chunk = chunk[~np.isnan(chunk)]
            if chunk.size == 0:
                continue
            output.append(
                (float(chunk.mean()), float(chunk.min()), float(chunk.max()))
            )
        return output

    def describe(self) -> str:
        """One-line summary used by examples and benchmark output."""
        return (
            f"{self.module_id or 'row'} b{self.bank} r{self.row} "
            f"[{self.config_label}]: n={len(self)} "
            f"min={self.min:.0f} mean={self.mean:.0f} max={self.max:.0f} "
            f"cv={self.cv:.4f} unique={self.n_unique}"
        )
