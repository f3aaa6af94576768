"""One simulated DRAM bank.

The bank is the stateful core of the device model: it enforces legal command
sequencing and JEDEC timings, stores row data, accrues read-disturbance
stress on the physical neighbors of activated rows, and materializes
bitflips (through :mod:`repro.dram.faults`) when stressed rows are read.

Commands arrive with explicit timestamps (nanoseconds); the caller — the
DRAM Bender interpreter or the memory-system simulator — owns the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.dram.faults import Condition, ModuleFaultModel, classify_pattern
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import RowMapping
from repro.dram.retention import RetentionModel
from repro.dram.timing import TimingParams
from repro.errors import CommandSequenceError, TimingViolationError


@dataclass
class _RowStress:
    """Accumulated disturbance on one physical victim row."""

    below_acts: int = 0
    below_on_ns: float = 0.0
    above_acts: int = 0
    above_on_ns: float = 0.0
    flipped: Set[int] = field(default_factory=set)

    @property
    def total_acts(self) -> int:
        return self.below_acts + self.above_acts

    @property
    def mean_on_ns(self) -> float:
        if self.total_acts == 0:
            return 0.0
        return (self.below_on_ns + self.above_on_ns) / self.total_acts

    def reset(self) -> None:
        self.below_acts = 0
        self.below_on_ns = 0.0
        self.above_acts = 0
        self.above_on_ns = 0.0
        self.flipped.clear()


class Bank:
    """State machine and storage for one bank of the simulated module."""

    def __init__(
        self,
        index: int,
        geometry: DramGeometry,
        timing: TimingParams,
        mapping: RowMapping,
        fault_model: ModuleFaultModel,
        retention: RetentionModel,
        temperature: Callable[[], float],
    ):
        self.index = index
        self.geometry = geometry
        self.timing = timing
        self.mapping = mapping
        self.fault_model = fault_model
        self.retention = retention
        self._temperature = temperature

        self.open_row: Optional[int] = None  # physical address
        self.opened_at: float = float("-inf")
        self.last_precharge: float = float("-inf")
        self.last_activate: float = float("-inf")
        self.last_write_end: float = float("-inf")

        self._storage: Dict[int, np.ndarray] = {}
        self._stress: Dict[int, _RowStress] = {}
        self._freshness: Dict[int, float] = {}  # last write or power-up time
        self.activation_count: int = 0

    # ------------------------------------------------------------------
    # Command interface (timestamps in ns)
    # ------------------------------------------------------------------

    def activate(self, logical_row: int, at: float) -> int:
        """Open a row; returns the physical row address."""
        self.geometry.validate_address(self.index, logical_row)
        if self.open_row is not None:
            raise CommandSequenceError(
                f"bank {self.index}: ACT while row {self.open_row} is open"
            )
        if at < self.last_precharge + self.timing.tRP:
            raise TimingViolationError(
                f"bank {self.index}: ACT at {at:.1f}ns violates tRP "
                f"(last PRE {self.last_precharge:.1f}ns)"
            )
        if at < self.last_activate + self.timing.tRC:
            raise TimingViolationError(
                f"bank {self.index}: ACT at {at:.1f}ns violates tRC"
            )
        physical = self.mapping.to_physical(logical_row)
        self.open_row = physical
        self.opened_at = at
        self.last_activate = at
        self.activation_count += 1
        return physical

    def precharge(self, at: float) -> None:
        """Close the open row and charge its physical neighbors' stress."""
        if self.open_row is None:
            # Precharging an idle bank is legal (PREab semantics).
            self.last_precharge = max(self.last_precharge, at)
            return
        if at < self.opened_at + self.timing.tRAS:
            raise TimingViolationError(
                f"bank {self.index}: PRE at {at:.1f}ns violates tRAS "
                f"(row opened {self.opened_at:.1f}ns)"
            )
        if at < self.last_write_end + self.timing.tWR:
            raise TimingViolationError(
                f"bank {self.index}: PRE at {at:.1f}ns violates tWR"
            )
        aggressor = self.open_row
        on_time = at - self.opened_at
        for victim, side in (
            (aggressor + 1, "below"),  # aggressor is the row below victim
            (aggressor - 1, "above"),  # aggressor is the row above victim
        ):
            if not 0 <= victim < self.geometry.n_rows:
                continue
            stress = self._stress.setdefault(victim, _RowStress())
            if side == "below":
                stress.below_acts += 1
                stress.below_on_ns += on_time
            else:
                stress.above_acts += 1
                stress.above_on_ns += on_time
        self.open_row = None
        self.last_precharge = at

    def bulk_hammer(
        self,
        logical_rows: List[int],
        count: int,
        t_agg_on: float,
        start: float,
    ) -> float:
        """Apply ``count`` interleaved ACT/PRE rounds to the given rows.

        Semantically identical to issuing the individual commands (each row
        receives ``count`` activations, each held open for ``t_agg_on``),
        but O(rows) instead of O(rows * count). This is the interpreter's
        fast path for hammer loops; stress accounting and timing totals
        match the per-command route exactly.

        Returns:
            The time after the final precharge completes.
        """
        if count < 0:
            raise CommandSequenceError(f"negative hammer count {count}")
        if t_agg_on < self.timing.tRAS:
            raise TimingViolationError(
                f"t_agg_on {t_agg_on}ns below minimum tRAS {self.timing.tRAS}ns"
            )
        if self.open_row is not None:
            raise CommandSequenceError(
                f"bank {self.index}: hammer loop while row {self.open_row} open"
            )
        now = max(start, self.last_precharge + self.timing.tRP)
        if count == 0 or not logical_rows:
            return now
        physical_rows = []
        for logical in logical_rows:
            self.geometry.validate_address(self.index, logical)
            physical_rows.append(self.mapping.to_physical(logical))
        per_round = len(physical_rows) * (t_agg_on + self.timing.tRP)
        for aggressor in physical_rows:
            for victim, side in ((aggressor + 1, "below"), (aggressor - 1, "above")):
                if not 0 <= victim < self.geometry.n_rows:
                    continue
                stress = self._stress.setdefault(victim, _RowStress())
                if side == "below":
                    stress.below_acts += count
                    stress.below_on_ns += count * t_agg_on
                else:
                    stress.above_acts += count
                    stress.above_on_ns += count * t_agg_on
        self.activation_count += count * len(physical_rows)
        end = now + count * per_round
        self.last_activate = end - t_agg_on - self.timing.tRP
        self.last_precharge = end - self.timing.tRP
        return end

    def write_row(self, logical_row: int, data: np.ndarray, at: float) -> None:
        """Store a full row image; resets the row's disturbance stress.

        The caller accounts for the 128 column commands this represents;
        the bank applies the net effect.
        """
        physical = self._require_open(logical_row, at)
        buffer = np.asarray(data, dtype=np.uint8)
        if buffer.size != self.geometry.row_bytes:
            raise CommandSequenceError(
                f"row write of {buffer.size} bytes, expected "
                f"{self.geometry.row_bytes}"
            )
        self._storage[physical] = buffer.copy()
        stress = self._stress.get(physical)
        if stress is not None:
            stress.reset()
        self._freshness[physical] = at
        self.last_write_end = at

    def read_row(self, logical_row: int, at: float) -> np.ndarray:
        """Return the row image, materializing disturbance/retention flips."""
        physical = self._require_open(logical_row, at)
        data = self._storage.get(physical)
        if data is None:
            # Unwritten rows power up with undefined but stable content.
            data = self._powerup_content(physical)
            self._storage[physical] = data
            self._freshness[physical] = at
        self._apply_disturbance(physical, at)
        self._apply_retention(physical, at)
        return self._storage[physical].copy()

    # ------------------------------------------------------------------
    # Introspection used by tests and the methodology layer
    # ------------------------------------------------------------------

    def stress_of(self, logical_row: int) -> _RowStress:
        """Current accumulated stress of a row (empty record if none)."""
        physical = self.mapping.to_physical(logical_row)
        return self._stress.get(physical, _RowStress())

    def injected_flips(self, logical_row: int) -> Set[int]:
        """Bit positions flipped by read disturbance since the last write."""
        physical = self.mapping.to_physical(logical_row)
        stress = self._stress.get(physical)
        return set(stress.flipped) if stress else set()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_open(self, logical_row: int, at: float) -> int:
        self.geometry.validate_address(self.index, logical_row)
        physical = self.mapping.to_physical(logical_row)
        if self.open_row != physical:
            raise CommandSequenceError(
                f"bank {self.index}: column access to row {logical_row} "
                f"(physical {physical}) but open row is {self.open_row}"
            )
        if at < self.opened_at + self.timing.tRCD:
            raise TimingViolationError(
                f"bank {self.index}: column access at {at:.1f}ns violates tRCD"
            )
        return physical

    def _powerup_content(self, physical: int) -> np.ndarray:
        rng = np.random.default_rng((physical * 2654435761) & 0xFFFFFFFF)
        return rng.integers(0, 256, self.geometry.row_bytes, dtype=np.uint8)

    def _neighbor_byte(self, physical: int) -> Optional[int]:
        """First byte of the dominant aggressor's stored data, if known."""
        stress = self._stress.get(physical)
        if stress is None:
            return None
        aggressor = (
            physical - 1 if stress.below_acts >= stress.above_acts else physical + 1
        )
        neighbor = self._storage.get(aggressor)
        if neighbor is None:
            return None
        return int(neighbor[0])

    def _apply_disturbance(self, physical: int, at: float) -> None:
        stress = self._stress.get(physical)
        if stress is None or stress.total_acts == 0:
            return
        data = self._storage[physical]
        victim_byte = int(data[0])
        aggressor_byte = self._neighbor_byte(physical)
        pattern = (
            classify_pattern(victim_byte, aggressor_byte)
            if aggressor_byte is not None
            else "other"
        )
        t_agg_on = max(stress.mean_on_ns, self.timing.tRAS)
        condition = Condition(
            pattern=pattern,
            t_agg_on=t_agg_on,
            temperature=self._temperature(),
        )
        flips = self.fault_model.trial_flips(
            self.index,
            physical,
            condition,
            stress.below_acts,
            stress.above_acts,
            already_flipped=stress.flipped,
        )
        for bit in flips:
            data[bit >> 3] ^= np.uint8(1 << (bit & 7))
            stress.flipped.add(bit)

    def _apply_retention(self, physical: int, at: float) -> None:
        fresh = self._freshness.get(physical)
        if fresh is None:
            return
        elapsed = at - fresh
        flips = self.retention.retention_flips(self.index, physical, elapsed)
        if not flips:
            return
        data = self._storage[physical]
        stress = self._stress.setdefault(physical, _RowStress())
        for bit in flips:
            if bit in stress.flipped:
                continue
            data[bit >> 3] ^= np.uint8(1 << (bit & 7))
            stress.flipped.add(bit)
