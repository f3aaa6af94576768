"""The simulated DRAM module (or HBM2 stack).

A module ties together geometry, timings, the row-address mapping, the cell
layout, the retention model, and the VRD fault model.

It has no periodic refresh, no on-die target-row-refresh (TRR) and no
on-die ECC. The paper's methodology switches all three off on real chips
before it tests anything (Sec. 3.1; for HBM2 it clears the ECC bit of a
mode register), so that every flip it observes is a read-disturbance
flip. The simulated device models only what stays switched on: the
retention model still decays rows held past tREFW, which the
methodology must respect.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.dram.bank import Bank
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.faults import ModuleFaultModel, VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import SequentialMapping
from repro.dram.retention import RetentionModel
from repro.dram.timing import DDR4_3200, TimingParams
from repro.errors import AddressError, ConfigurationError
from repro.rng import DEFAULT_SEED


class DramModule:
    """One simulated DDR4/DDR5 module or HBM2 chip."""

    def __init__(
        self,
        module_id: str = "SIM0",
        kind: str = "DDR4",
        geometry: Optional[DramGeometry] = None,
        timing: TimingParams = DDR4_3200,
        mapping_factory=SequentialMapping,
        cell_layout: Optional[CellLayout] = None,
        vrd_params: Optional[VrdModelParams] = None,
        seed: int = DEFAULT_SEED,
    ):
        if kind not in ("DDR4", "DDR5", "HBM2"):
            raise ConfigurationError(f"unknown module kind {kind!r}")
        self.module_id = module_id
        self.kind = kind
        self.geometry = geometry or DramGeometry()
        self.timing = timing
        self.cell_layout = cell_layout or CellLayout(CellLayoutKind.MIXED)
        self.seed = seed
        self.temperature: float = 50.0
        if geometry is not None and geometry.protocol != kind:
            raise ConfigurationError(
                f"module kind {kind!r} disagrees with geometry protocol "
                f"{geometry.protocol!r}"
            )

        params = vrd_params or VrdModelParams()
        self.fault_model = ModuleFaultModel(
            params,
            self.geometry.row_bits,
            seed,
            module_id,
            cell_layout=self.cell_layout,
        )
        self.retention = RetentionModel(
            self.geometry.row_bits, timing.tREFW, seed, module_id
        )
        self.banks: List[Bank] = [
            Bank(
                index,
                self.geometry,
                timing,
                mapping_factory(self.geometry.n_rows),
                self.fault_model,
                self.retention,
                temperature=lambda: self.temperature,
            )
            for index in range(self.geometry.n_banks)
        ]

    @property
    def protocol(self) -> str:
        """DRAM protocol of this module (alias of :attr:`kind`, matching
        :attr:`repro.chips.catalog.ModuleSpec.protocol`)."""
        return self.kind

    # ------------------------------------------------------------------
    # Command interface
    # ------------------------------------------------------------------

    def bank(self, index: int) -> Bank:
        if not 0 <= index < len(self.banks):
            raise AddressError(f"bank {index} out of range")
        return self.banks[index]

    def activate(self, bank: int, row: int, at: float) -> None:
        self.bank(bank).activate(row, at)

    def precharge(self, bank: int, at: float) -> None:
        self.bank(bank).precharge(at)

    def bulk_hammer(
        self, bank: int, rows: List[int], count: int, t_agg_on: float, start: float
    ) -> float:
        """Fast path for hammer loops; see :meth:`Bank.bulk_hammer`."""
        return self.bank(bank).bulk_hammer(rows, count, t_agg_on, start)

    def write_row(self, bank: int, row: int, data: np.ndarray, at: float) -> None:
        self.bank(bank).write_row(row, data, at)

    def read_row(self, bank: int, row: int, at: float) -> np.ndarray:
        return self.bank(bank).read_row(row, at)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def set_temperature(self, celsius: float) -> None:
        """Set the device temperature (the PID controller calls this)."""
        if not -40.0 <= celsius <= 125.0:
            raise ConfigurationError(f"temperature {celsius} C out of range")
        self.temperature = celsius

    def disable_interference_sources(self) -> None:
        """Does nothing: the device has no refresh, TRR or on-die ECC to
        switch off (see the module docstring). Kept because the benchmark
        harness under ``bench/`` still calls it."""
