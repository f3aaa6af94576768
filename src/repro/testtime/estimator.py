"""Sweep generators behind Figs. 17-24 (Appendix A).

For RowHammer (tAggOn = tRAS) and RowPress (tAggOn = 7.8 us) the paper
plots testing time and energy for a single RDT measurement, for 1K and for
100K measurements, sweeping hammer counts, numbers of victim rows, and
numbers of simultaneously tested banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.dram.timing import DDR5_8800, TimingParams
from repro.errors import ConfigurationError
from repro.testtime.energy import EnergyModel
from repro.testtime.schedule import multi_bank_schedule, single_bank_schedule
from repro.units import ns_to_days, ns_to_hours, ns_to_ms, ns_to_seconds

#: Sweep axes used throughout the Appendix A figures.
HAMMER_COUNTS = (1_000, 2_000, 4_000, 8_000, 16_000)
BANK_COUNTS = (1, 2, 4, 8, 16)
ROW_COUNTS = (1, 1_024, 65_536, 131_072, 262_144)

#: The RowPress on-time of Figs. 21-24 (one tREFI).
ROWPRESS_T_AGG_ON = 7_800.0


@dataclass(frozen=True)
class CostPoint:
    """One bar of an Appendix A figure."""

    hammer_count: int
    n_banks: int
    n_rows: int
    n_measurements: int
    time_ns: float
    energy_j: float

    @property
    def time_ms(self) -> float:
        return ns_to_ms(self.time_ns)

    @property
    def time_s(self) -> float:
        return ns_to_seconds(self.time_ns)

    @property
    def time_hours(self) -> float:
        return ns_to_hours(self.time_ns)

    @property
    def time_days(self) -> float:
        return ns_to_days(self.time_ns)


class TestTimeEstimator:
    """Computes RDT testing cost for arbitrary sweep points."""

    def __init__(
        self,
        timing: TimingParams = DDR5_8800,
        energy: "EnergyModel | None" = None,
    ):
        self.timing = timing
        self.energy = energy or EnergyModel()

    def measurement_cost(
        self,
        hammer_count: int,
        t_agg_on: float,
        n_banks: int = 1,
        n_rows: int = 1,
        n_measurements: int = 1,
    ) -> CostPoint:
        """Cost of measuring ``n_rows`` rows ``n_measurements`` times each.

        Banks overlap (Table 5); rows within a bank are sequential. With
        ``n_banks`` tested simultaneously, each schedule covers one victim
        row addressed in every bank, so the row axis shrinks by the bank
        count, exactly the parallelism of the paper's estimates.
        """
        if n_rows < 1 or n_measurements < 1:
            raise ConfigurationError("rows and measurements must be >= 1")
        if n_banks == 1:
            schedule = single_bank_schedule(hammer_count, t_agg_on, self.timing)
        else:
            schedule = multi_bank_schedule(
                hammer_count, t_agg_on, n_banks, self.timing
            )
        t_on = max(t_agg_on, self.timing.tRAS)
        row_open_ns = 2.0 * hammer_count * t_on
        one = schedule.total_ns
        one_energy = self.energy.schedule_energy_j(schedule, row_open_ns)
        sequential_rounds = -(-n_rows // n_banks)  # ceil division
        repeats = sequential_rounds * n_measurements
        return CostPoint(
            hammer_count=hammer_count,
            n_banks=n_banks,
            n_rows=n_rows,
            n_measurements=n_measurements,
            time_ns=one * repeats,
            energy_j=one_energy * repeats,
        )

    # ------------------------------------------------------------------
    # Figure sweeps
    # ------------------------------------------------------------------

    def single_measurement_sweep(
        self,
        t_agg_on: float,
        hammer_counts: Sequence[int] = HAMMER_COUNTS,
        bank_counts: Sequence[int] = BANK_COUNTS,
    ) -> List[CostPoint]:
        """Figs. 17 / 21: one measurement, hammer counts x bank counts."""
        return [
            self.measurement_cost(hammers, t_agg_on, n_banks=banks)
            for hammers in hammer_counts
            for banks in bank_counts
        ]

    def row_sweep(
        self,
        t_agg_on: float,
        hammer_counts: Sequence[int] = HAMMER_COUNTS,
        row_counts: Sequence[int] = ROW_COUNTS,
    ) -> List[CostPoint]:
        """Figs. 18 / 22: one measurement of many rows in a single bank."""
        return [
            self.measurement_cost(hammers, t_agg_on, n_rows=rows)
            for hammers in hammer_counts
            for rows in row_counts
        ]

    def campaign_sweep(
        self,
        t_agg_on: float,
        n_measurements: int,
        hammer_count: int = 1_000,
        row_counts: Sequence[int] = ROW_COUNTS,
        bank_counts: Sequence[int] = BANK_COUNTS,
    ) -> List[CostPoint]:
        """Figs. 19-20 / 23-24: 1K or 100K measurements across rows x banks."""
        return [
            self.measurement_cost(
                hammer_count,
                t_agg_on,
                n_banks=banks,
                n_rows=rows,
                n_measurements=n_measurements,
            )
            for rows in row_counts
            for banks in bank_counts
        ]

    # ------------------------------------------------------------------
    # Headline numbers quoted in the Appendix A summary
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """(days, joules) for the four headline scenarios of Appendix A."""
        chip_rows = 32 * 262_144  # 32 banks of 256K rows
        scenarios = {
            "rowhammer_100k": self.measurement_cost(
                1_000, self.timing.tRAS, n_banks=16, n_rows=chip_rows,
                n_measurements=100_000,
            ),
            "rowhammer_1k": self.measurement_cost(
                1_000, self.timing.tRAS, n_banks=16, n_rows=chip_rows,
                n_measurements=1_000,
            ),
            "rowpress_100k": self.measurement_cost(
                1_000, ROWPRESS_T_AGG_ON, n_banks=16, n_rows=chip_rows,
                n_measurements=100_000,
            ),
            "rowpress_1k": self.measurement_cost(
                1_000, ROWPRESS_T_AGG_ON, n_banks=16, n_rows=chip_rows,
                n_measurements=1_000,
            ),
        }
        return {
            key: (point.time_days, point.energy_j)
            for key, point in scenarios.items()
        }
