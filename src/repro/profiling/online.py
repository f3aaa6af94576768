"""Opportunistic online RDT profiling.

The profiler owns a set of rows (e.g. the bank's most vulnerable rows from
a coarse factory scan) and, whenever the memory controller hands it an idle
budget, runs complete single RDT measurements — the same Algorithm 1 sweep
semantics as offline characterization — against the live device. Per row it
keeps the running minimum and measurement count; the time each measurement
steals is charged against the budget using the Appendix A trial-time
arithmetic, so callers can reason about profiling bandwidth.

Because of VRD the running minimum only ever tightens; the interesting
questions (answered by ``benchmarks/test_ext_online_profiling.py``) are how
fast it approaches the long-run minimum and what that costs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from repro.core.config import TestConfig
from repro.core.rdt import FastRdtMeter, HammerSweep
from repro.dram.module import DramModule
from repro.errors import ConfigurationError, MeasurementError

#: Default per-row history ring size. Online runs measure indefinitely while
#: only min/count/last feed decisions, so retention must be bounded.
DEFAULT_HISTORY_LIMIT = 4096


@dataclass
class RowProfile:
    """Live profiling state of one row.

    ``history`` is ``None`` unless the owning profiler was built with
    ``keep_history=True``; when present it is a ring buffer — once full,
    appending evicts the oldest measurement, keeping memory constant over
    arbitrarily long runs.
    """

    row: int
    sweep: Optional[HammerSweep] = None
    n_measurements: int = 0
    min_rdt: float = math.inf
    last_rdt: float = math.nan
    failed_sweeps: int = 0
    history: Optional[Deque[float]] = None

    @property
    def has_estimate(self) -> bool:
        return math.isfinite(self.min_rdt)


class OnlineRdtProfiler:
    """Idle-time RDT profiler for one bank of one module.

    Args:
        module: Device under profile (the simulated measurement path
            models exactly the trial window, between refreshes).
        rows: The rows to keep profiled.
        config: Test condition used for the measurements.
        bank: Bank under profile.
        strategy: ``"round_robin"`` visits rows evenly; ``"focus_min"``
            spends half the budget re-measuring the row currently holding
            the global minimum (the row that defines the mitigation
            threshold).
        keep_history: Retain recent measured values per row (useful for
            analysis). Retention is a ring buffer of ``history_limit``
            entries per row, so long runs stay memory-bounded. When
            ``False`` (the default) no history storage is allocated at all
            and ``RowProfile.history`` stays ``None``.
        history_limit: Ring size of each row's history. ``None`` keeps an
            unbounded deque (only for short analysis runs).
    """

    def __init__(
        self,
        module: DramModule,
        rows: Iterable[int],
        config: TestConfig,
        bank: int = 0,
        strategy: str = "round_robin",
        keep_history: bool = False,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
    ):
        if strategy not in ("round_robin", "focus_min"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if history_limit is not None and history_limit < 1:
            raise ConfigurationError(
                f"history_limit must be positive, got {history_limit}"
            )
        self.module = module
        self.config = config
        self.bank = bank
        self.strategy = strategy
        self.keep_history = keep_history
        self.history_limit = history_limit
        self._meter = FastRdtMeter(module, bank)
        self._condition = config.condition(module.timing)
        self._profiles: Dict[int, RowProfile] = {
            row: RowProfile(
                row,
                history=deque(maxlen=history_limit) if keep_history else None,
            )
            for row in rows
        }
        if not self._profiles:
            raise ConfigurationError("profiler needs at least one row")
        self._order: List[int] = list(self._profiles)
        self._cost_tables: Dict[int, "np.ndarray"] = {}
        self._cursor = 0
        self._toggle = False
        self.time_spent_ns = 0.0
        self.measurements_done = 0

    # ------------------------------------------------------------------
    # Measurement machinery
    # ------------------------------------------------------------------

    def _sweep_for(self, profile: RowProfile) -> HammerSweep:
        if profile.sweep is None:
            guess = self._meter.guess_rdt(profile.row, self.config)
            profile.sweep = HammerSweep.from_guess(guess)
        return profile.sweep

    def _trial_time_ns(self, hammer_count: float) -> float:
        """One trial's duration: initialize, hammer double-sided, read."""
        timing = self.module.timing
        columns = self.module.geometry.columns_per_row
        t_on = max(self.config.t_agg_on_ns, timing.tRAS)
        init = 3 * (
            timing.tRCD + (columns - 1) * timing.tCCD_L_WR + timing.tWR
            + timing.tRP
        )
        hammer = 2.0 * hammer_count * (t_on + timing.tRP)
        read = (
            timing.tRCD + (columns - 1) * timing.tCCD_L + timing.tRTP
            + timing.tRP
        )
        return init + hammer + read

    def _cost_table(self, sweep: HammerSweep) -> "np.ndarray":
        """Cumulative trial times over the sweep grid, computed once.

        ``np.cumsum`` accumulates element-sequentially from the first grid
        point, exactly like ``sum()`` over the same per-trial times, so the
        table lookup is bit-identical to the summation it replaces.
        """
        table = self._cost_tables.get(id(sweep))
        if table is None:
            grid = sweep.grid()
            table = np.cumsum([self._trial_time_ns(h) for h in grid])
            self._cost_tables[id(sweep)] = table
        return table

    def _measurement_cost_ns(self, sweep: HammerSweep, value: float) -> float:
        """Time of one full measurement (all trials up to the first flip)."""
        grid = sweep.grid()
        table = self._cost_table(sweep)
        if math.isnan(value):
            trials = grid.size
        else:
            trials = int(np.searchsorted(grid, value, side="right"))
        if trials == 0:
            return 0.0
        return float(table[trials - 1])

    def _measure_row(self, profile: RowProfile) -> float:
        """One RDT measurement of one row; returns its cost in ns."""
        sweep = self._sweep_for(profile)
        mapping = self.module.bank(self.bank).mapping
        process = self.module.fault_model.process(
            self.bank, mapping.to_physical(profile.row)
        )
        process.begin_measurement(self._condition)
        latent = process.current_threshold(self._condition)
        measured = float(sweep.quantize([latent])[0])
        cost = self._measurement_cost_ns(sweep, measured)
        profile.n_measurements += 1
        profile.last_rdt = measured
        if math.isnan(measured):
            profile.failed_sweeps += 1
        else:
            profile.min_rdt = min(profile.min_rdt, measured)
            if profile.history is not None:
                profile.history.append(measured)
        self.measurements_done += 1
        self.time_spent_ns += cost
        return cost

    def _next_row(self) -> RowProfile:
        if self.strategy == "focus_min":
            self._toggle = not self._toggle
            if self._toggle:
                holder = self.min_holder()
                if holder is not None:
                    return self._profiles[holder]
        row = self._order[self._cursor % len(self._order)]
        self._cursor += 1
        return self._profiles[row]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def idle_tick(self, budget_ns: float) -> int:
        """Spend an idle budget on measurements; returns how many ran.

        Each measurement runs to completion (a partial sweep measures
        nothing), so at least one measurement runs per tick as long as the
        budget is positive — mirroring how an online profiler would claim
        one maintenance slot at a time.
        """
        if budget_ns <= 0:
            raise ConfigurationError("idle budget must be positive")
        performed = 0
        remaining = budget_ns
        while True:
            profile = self._next_row()
            cost = self._measure_row(profile)
            performed += 1
            remaining -= cost
            if remaining <= 0:
                break
        return performed

    def min_holder(self) -> Optional[int]:
        """The row currently holding the global minimum estimate."""
        best_row = None
        best = math.inf
        for row, profile in self._profiles.items():
            if profile.has_estimate and profile.min_rdt < best:
                best = profile.min_rdt
                best_row = row
        return best_row

    def global_min_estimate(self) -> float:
        """The live minimum RDT estimate across all profiled rows."""
        holder = self.min_holder()
        if holder is None:
            raise MeasurementError("no successful measurements yet")
        return self._profiles[holder].min_rdt

    def convergence_excess(self, true_minima: Dict[int, float]) -> float:
        """Mean normalized excess of the live estimates over long-run
        minima: 0.0 means fully converged (the Fig. 8 middle metric,
        evaluated online)."""
        excesses = []
        for row, true_min in true_minima.items():
            profile = self._profiles.get(row)
            if profile is None or not profile.has_estimate:
                continue
            if true_min <= 0:
                raise MeasurementError("true minima must be positive")
            excesses.append(profile.min_rdt / true_min - 1.0)
        if not excesses:
            raise MeasurementError("no overlapping rows with estimates")
        return float(sum(excesses) / len(excesses))
