"""Data-retention model, including variable retention time (VRT).

Two roles:

1. The paper's methodology (Sec. 3.1) must rule retention failures out as
   an interference source: experiments finish strictly within one refresh
   window (tREFW), inside which manufacturers guarantee no retention
   bitflips. Each row has a retention horizon comfortably above tREFW;
   reads of rows left unrefreshed beyond their horizon see retention flips
   in a few weak-retention cells.

2. The paper grounds its VRD hypothesis in the *variable retention time*
   phenomenon (Sec. 4.2): cells whose retention time jumps between
   discrete states as charge traps occupy/empty. :class:`VrtCell` models
   exactly that two-state random-telegraph process, so the VRT/VRD analogy
   the paper draws can be examined side by side
   (``benchmarks/test_ext_vrt_analogy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.dram.traps import Trap, sample_occupancy_series
from repro.errors import ConfigurationError
from repro.rng import derive


@dataclass
class VrtCell:
    """A cell with variable retention time: two retention states driven by
    a random-telegraph trap (the phenomenon the paper's Sec. 4.2 cites as
    the closest known analog of VRD)."""

    bit: int
    high_retention_ns: float
    low_retention_ns: float
    trap: Trap
    seed: int
    identity: Tuple[str, int, int, int]

    def retention_series(self, n: int) -> np.ndarray:
        """``n`` successive retention-time measurements of this cell.

        One entry per retention test, mirroring how
        :meth:`~repro.dram.faults.RowVrdProcess.latent_series` yields one
        RDT per measurement — the shared structure behind the VRT/VRD
        analogy.
        """
        if n < 0:
            raise ConfigurationError("series length must be >= 0")
        module_id, bank, row, cell = self.identity
        rng = derive(self.seed, "vrt-series", module_id, bank, row, cell)
        occupied = sample_occupancy_series(self.trap, n, rng)
        noise = np.exp(rng.normal(0.0, 0.02, n))
        base = np.where(
            occupied, self.low_retention_ns, self.high_retention_ns
        )
        return base * noise


class RetentionModel:
    """Per-row retention horizons and weak-retention cells for one module."""

    def __init__(
        self,
        row_bits: int,
        t_refw_ns: float,
        seed: int,
        module_id: str,
        median_horizon_windows: float = 8.0,
        horizon_sigma: float = 0.7,
        weak_cells: int = 3,
    ):
        if median_horizon_windows <= 1.0:
            raise ConfigurationError(
                "median retention horizon must exceed one refresh window, "
                f"got {median_horizon_windows}"
            )
        if weak_cells < 1:
            raise ConfigurationError("weak_cells must be >= 1")
        self.row_bits = row_bits
        self.t_refw_ns = t_refw_ns
        self.seed = seed
        self.module_id = module_id
        self.median_horizon_windows = median_horizon_windows
        self.horizon_sigma = horizon_sigma
        self.weak_cells = weak_cells
        self._rows: Dict[Tuple[int, int], Tuple[float, np.ndarray]] = {}

    def _row(self, bank: int, row: int) -> Tuple[float, np.ndarray]:
        key = (bank, row)
        entry = self._rows.get(key)
        if entry is None:
            rng = derive(self.seed, "retention", self.module_id, bank, row)
            horizon = (
                self.t_refw_ns
                * self.median_horizon_windows
                * float(np.exp(rng.normal(0.0, self.horizon_sigma)))
            )
            # Horizons never dip below the guaranteed refresh window.
            horizon = max(horizon, self.t_refw_ns * 1.05)
            cells = rng.choice(self.row_bits, size=self.weak_cells, replace=False)
            entry = (horizon, np.sort(cells.astype(np.int64)))
            self._rows[key] = entry
        return entry

    def vrt_cell(self, bank: int, row: int, cell_index: int = 0) -> "VrtCell":
        """A VRT-afflicted cell on this row (Sec. 4.2 analogy support)."""
        horizon, cells = self._row(bank, row)
        if not 0 <= cell_index < len(cells):
            raise ConfigurationError(
                f"cell index {cell_index} out of range for "
                f"{len(cells)} weak cells"
            )
        rng = derive(
            self.seed, "vrt", self.module_id, bank, row, cell_index
        )
        # VRT literature: the low retention state is typically several
        # times shorter than the high state, with dwell times of seconds
        # to hours; we clock the trap per retention test, like the VRD
        # model clocks per RDT measurement.
        ratio = float(rng.uniform(2.0, 8.0))
        pi = float(np.exp(rng.uniform(np.log(0.002), np.log(0.2))))
        speed = float(rng.uniform(0.3, 1.0))
        return VrtCell(
            bit=int(cells[cell_index]),
            high_retention_ns=horizon,
            low_retention_ns=horizon / ratio,
            trap=Trap(
                depth=1.0 - 1.0 / ratio,
                p_occupy=max(1e-7, speed * pi),
                p_release=max(1e-7, speed * (1.0 - pi)),
            ),
            seed=self.seed,
            identity=(self.module_id, bank, row, cell_index),
        )

    def retention_flips(
        self, bank: int, row: int, elapsed_ns: float
    ) -> List[int]:
        """Bit positions that have decayed after ``elapsed_ns`` unrefreshed.

        Within the refresh window this is always empty (the JEDEC
        guarantee); beyond the row's horizon the weak-retention cells decay
        one by one, each at ``horizon * (1 + i/2)``.
        """
        if elapsed_ns < 0:
            raise ConfigurationError("elapsed time must be >= 0")
        if elapsed_ns <= self.t_refw_ns:
            return []
        horizon, cells = self._row(bank, row)
        flips = []
        for index, cell in enumerate(cells):
            if elapsed_ns > horizon * (1.0 + 0.5 * index):
                flips.append(int(cell))
        return flips
