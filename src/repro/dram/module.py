"""The simulated DRAM module (or HBM2 stack).

A module ties together geometry, timings, the row-address mapping, the cell
layout, the retention model, and the VRD fault model, and adds the
device-side features the paper's methodology must explicitly disable
(Sec. 3.1): periodic refresh, on-die target-row-refresh (TRR), and — for
HBM2 — on-die ECC behind a mode register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dram.bank import Bank
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.faults import ModuleFaultModel, VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import SequentialMapping
from repro.dram.retention import RetentionModel
from repro.dram.timing import DDR4_3200, TimingParams
from repro.errors import AddressError, ConfigurationError
from repro.rng import DEFAULT_SEED, derive


@dataclass
class ModeRegisters:
    """Device mode bits relevant to the methodology.

    * ``ecc_enabled`` — HBM2 on-die ECC; the paper clears the corresponding
      mode-register bit (JESD235D) before testing.
    * ``trr_enabled`` — in-DRAM target-row-refresh; engaged only by periodic
      refresh commands, so disabling refresh also neutralizes it.
    """

    ecc_enabled: bool = False
    trr_enabled: bool = True


class _TrrSampler:
    """Minimal in-DRAM TRR: sample aggressors, refresh victims on REF."""

    def __init__(self, table_size: int = 4):
        self.table_size = table_size
        self.counts: Dict[int, int] = {}

    def observe(self, physical_row: int) -> None:
        if physical_row in self.counts:
            self.counts[physical_row] += 1
        elif len(self.counts) < self.table_size:
            self.counts[physical_row] = 1
        else:
            # Decrement-all eviction (Misra-Gries style, as TRR patents hint).
            for key in list(self.counts):
                self.counts[key] -= 1
                if self.counts[key] <= 0:
                    del self.counts[key]

    def observe_repeat(self, physical_row: int, repeats: int) -> None:
        """State-identical to ``repeats`` successive ``observe`` calls.

        Closed form for the three scalar regimes: a tracked row absorbs all
        ``repeats`` as increments; an untracked row with table space starts
        at ``repeats``; on a full table the first ``min(counts)`` misses
        decrement every counter (evicting the minima), after which the row
        is inserted and counts the remaining hits.
        """
        if repeats <= 0:
            return
        counts = self.counts
        if physical_row in counts:
            counts[physical_row] += repeats
            return
        if len(counts) < self.table_size:
            counts[physical_row] = repeats
            return
        rounds = min(min(counts.values()), repeats)
        for key in list(counts):
            counts[key] -= rounds
            if counts[key] <= 0:
                del counts[key]
        if repeats > rounds:
            counts[physical_row] = repeats - rounds

    def top_aggressor(self) -> Optional[int]:
        if not self.counts:
            return None
        return max(self.counts, key=self.counts.get)

    def clear(self) -> None:
        self.counts.clear()


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
        rows_per_refresh: Optional[int] = None,
    ):
        if kind not in ("DDR4", "DDR5", "HBM2"):
            raise ConfigurationError(f"unknown module kind {kind!r}")
        self.module_id = module_id
        self.kind = kind
        self.geometry = geometry or DramGeometry()
        self.timing = timing
        self.cell_layout = cell_layout or CellLayout(CellLayoutKind.MIXED)
        self.mode = ModeRegisters()
        self.seed = seed
        self.temperature: float = 50.0
        self.refresh_enabled: bool = True
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
        # REF covers the whole bank over tREFW: rows per REF command.
        refs_per_window = max(1, int(timing.tREFW / timing.tREFI))
        self.rows_per_refresh = rows_per_refresh or max(
            1, self.geometry.n_rows // refs_per_window
        )
        self._refresh_pointer = 0
        self._trr = _TrrSampler()

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
        physical = self.bank(bank).activate(row, at)
        if self.mode.trr_enabled:
            self._trr.observe(physical)

    def precharge(self, bank: int, at: float) -> None:
        self.bank(bank).precharge(at)

    def bulk_hammer(
        self, bank: int, rows: List[int], count: int, t_agg_on: float, start: float
    ) -> float:
        """Fast path for hammer loops; see :meth:`Bank.bulk_hammer`."""
        end = self.bank(bank).bulk_hammer(rows, count, t_agg_on, start)
        if self.mode.trr_enabled:
            mapping = self.bank(bank).mapping
            for row in rows:
                self._trr.observe_repeat(mapping.to_physical(row), min(count, 64))
        return end

    def write_row(self, bank: int, row: int, data: np.ndarray, at: float) -> None:
        self.bank(bank).write_row(row, data, at)

    def read_row(self, bank: int, row: int, at: float) -> np.ndarray:
        data = self.bank(bank).read_row(row, at)
        if self.mode.ecc_enabled:
            data = self._on_die_ecc_correct(bank, row, data)
        return data

    def refresh(self, at: float) -> None:
        """One REF command: refresh the next row stripe in every bank.

        Also triggers the TRR sampler's victim refresh, as on real devices.
        The characterization methodology disables periodic refresh, which
        neutralizes both effects.
        """
        if not self.refresh_enabled:
            return
        start = self._refresh_pointer
        rows = [
            (start + offset) % self.geometry.n_rows
            for offset in range(self.rows_per_refresh)
        ]
        self._refresh_pointer = (start + self.rows_per_refresh) % self.geometry.n_rows
        for bank in self.banks:
            for physical in rows:
                bank.refresh_row(physical, at)
        if self.mode.trr_enabled:
            aggressor = self._trr.top_aggressor()
            if aggressor is not None:
                for bank in self.banks:
                    for victim in (aggressor - 1, aggressor + 1):
                        bank.refresh_row(victim, at)
            self._trr.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def set_temperature(self, celsius: float) -> None:
        """Set the device temperature (the PID controller calls this)."""
        if not -40.0 <= celsius <= 125.0:
            raise ConfigurationError(f"temperature {celsius} C out of range")
        self.temperature = celsius

    def read_temperature_sensor(self, at: float) -> float:
        """Read the in-chip temperature sensor.

        The paper monitors the HBM2 chips' internal sensor through the
        IEEE 1500 test port to verify thermal stability (Sec. 3.1).
        Real sensors quantize to 1 C and carry ~+/-1 C of offset/noise;
        the readout here is deterministic in (device, time) so repeated
        polls at one instant agree.
        """
        rng = derive(self.seed, "temp-sensor", self.module_id, int(at // 1000))
        noisy = self.temperature + float(rng.normal(0.0, 0.4))
        return float(round(noisy))

    def disable_interference_sources(self) -> None:
        """Apply the paper's Sec. 3.1 methodology in one call.

        Disables periodic refresh (which also neutralizes TRR) and on-die
        ECC, so observed flips are read-disturbance flips.
        """
        self.refresh_enabled = False
        self.mode.ecc_enabled = False

    def flips_by_chip(self, bank: int, row: int) -> Dict[int, List[int]]:
        """Group a row's injected flips by the module chip that stores them.

        Used by the Sec. 6.4 ECC analysis (bitflips spread over up to four
        chips of a module).
        """
        grouped: Dict[int, List[int]] = {}
        for bit in sorted(self.bank(bank).injected_flips(row)):
            grouped.setdefault(self.geometry.chip_of_bit(bit), []).append(bit)
        return grouped

    def _on_die_ecc_correct(
        self, bank: int, row: int, data: np.ndarray
    ) -> np.ndarray:
        """Correct single-bit errors per 64-bit word (on-die SECDED view).

        The device knows which cells decayed/flipped; words with exactly one
        flipped bit read back corrected, mirroring on-die ECC behavior.
        """
        flips = self.bank(bank).injected_flips(row)
        if not flips:
            return data
        per_word: Dict[int, List[int]] = {}
        for bit in flips:
            per_word.setdefault(bit // 64, []).append(bit)
        corrected = data.copy()
        for word, bits in per_word.items():
            if len(bits) == 1:
                bit = bits[0]
                corrected[bit >> 3] ^= np.uint8(1 << (bit & 7))
        return corrected
