"""Tests for Appendix A schedules, energy, and sweeps."""

import pytest

from repro.dram.timing import DDR5_8800
from repro.errors import ConfigurationError
from repro.testtime import (
    EnergyModel,
    TestTimeEstimator,
    multi_bank_schedule,
    single_bank_schedule,
)
from repro.testtime.estimator import ROWPRESS_T_AGG_ON


class TestSingleBankSchedule:
    def test_table4_command_counts(self):
        schedule = single_bank_schedule(hammer_count=10, t_agg_on=32.0)
        counts = schedule.command_counts()
        # Three row initializations + readback ACT (Table 4).
        assert counts["ACT"] == 4
        assert counts["WRITE"] == 3 * 128
        assert counts["READ"] == 128
        assert counts["ACT+PRE"] == 2 * 10

    def test_duration_scales_with_hammers(self):
        t = DDR5_8800
        base = single_bank_schedule(0, t.tRAS).total_ns
        hammered = single_bank_schedule(1000, t.tRAS).total_ns
        assert hammered - base == pytest.approx(2000 * (t.tRAS + t.tRP))

    def test_rowpress_dominated_by_on_time(self):
        press = single_bank_schedule(1000, ROWPRESS_T_AGG_ON).total_ns
        hammer = single_bank_schedule(1000, DDR5_8800.tRAS).total_ns
        assert press > hammer * 50

    def test_as_table_shapes(self):
        rows = single_bank_schedule(5, 32.0).as_table()
        assert all(len(row) == 4 for row in rows)

    def test_negative_hammer_rejected(self):
        with pytest.raises(ConfigurationError):
            single_bank_schedule(-1, 32.0)


class TestMultiBankSchedule:
    def test_table5_write_counts(self):
        schedule = multi_bank_schedule(10, 32.0, n_banks=16)
        counts = schedule.command_counts()
        # Table 5: 16 ACTs, 2032 tCCD_S-paced writes plus one tWR-paced
        # settling write per initialized row address.
        assert counts["WRITE"] == 3 * (16 * 127 + 1)
        assert counts["ACT"] == 3 * 16 + 16
        assert counts["ACT+PRE"] == 2 * 10 * 16

    def test_bank_overlap_saves_time(self):
        single = single_bank_schedule(1000, 32.0).total_ns
        multi = multi_bank_schedule(1000, 32.0, n_banks=16).total_ns
        # 16 measurements in far less than 16x the time.
        assert multi < single * 4

    def test_rowpress_hides_bank_activations(self):
        # With tAggOn >> tRRD_S * banks, the hammer phase costs the same
        # per round regardless of bank count.
        a = multi_bank_schedule(100, ROWPRESS_T_AGG_ON, n_banks=1)
        b = multi_bank_schedule(100, ROWPRESS_T_AGG_ON, n_banks=16)
        hammer_a = [p for p in a.phases if p.command == "ACT+PRE"][0]
        hammer_b = [p for p in b.phases if p.command == "ACT+PRE"][0]
        assert hammer_a.duration_ns == pytest.approx(hammer_b.duration_ns)

    def test_invalid_banks(self):
        with pytest.raises(ConfigurationError):
            multi_bank_schedule(10, 32.0, n_banks=0)


class TestEnergy:
    def test_energy_positive_and_scales(self):
        model = EnergyModel()
        small = model.schedule_energy_j(single_bank_schedule(100, 32.0))
        large = model.schedule_energy_j(single_bank_schedule(10_000, 32.0))
        assert 0 < small < large

    def test_row_open_premium(self):
        model = EnergyModel()
        schedule = single_bank_schedule(100, 32.0)
        assert model.schedule_energy_j(schedule, row_open_ns=1e6) > (
            model.schedule_energy_j(schedule)
        )

    def test_negative_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(act_pre_nj=-1.0)


class TestEstimator:
    def test_headline_scenarios_near_paper(self):
        """Appendix A summary: ~61 days / 13 MJ for RowHammer 100K, ~15 h /
        128 kJ for 1K. (RowPress runs ~2x the paper's quote because we
        charge each aggressor its own tAggOn; see EXPERIMENTS.md.)"""
        summary = TestTimeEstimator().summary()
        days, joules = summary["rowhammer_100k"]
        assert days == pytest.approx(61, rel=0.15)
        assert joules == pytest.approx(13e6, rel=0.25)
        days_1k, joules_1k = summary["rowhammer_1k"]
        assert days_1k * 24 == pytest.approx(15, rel=0.15)
        assert joules_1k == pytest.approx(128e3, rel=0.25)
        # RowPress scales by roughly tAggOn / (tRAS + tRP).
        assert summary["rowpress_100k"][0] > 100 * days

    def test_linear_scaling_in_measurements(self):
        est = TestTimeEstimator()
        one = est.measurement_cost(1000, 32.0, n_measurements=1)
        thousand = est.measurement_cost(1000, 32.0, n_measurements=1000)
        assert thousand.time_ns == pytest.approx(one.time_ns * 1000)
        assert thousand.energy_j == pytest.approx(one.energy_j * 1000)

    def test_bank_parallelism_reduces_row_time(self):
        est = TestTimeEstimator()
        serial = est.measurement_cost(1000, 32.0, n_banks=1, n_rows=1024)
        parallel = est.measurement_cost(1000, 32.0, n_banks=16, n_rows=1024)
        assert parallel.time_ns < serial.time_ns

    def test_sweeps_cover_axes(self):
        est = TestTimeEstimator()
        points = est.single_measurement_sweep(32.0)
        assert len(points) == 25
        rows = est.row_sweep(32.0)
        assert len(rows) == 25
        campaign = est.campaign_sweep(32.0, n_measurements=1000)
        assert len(campaign) == 25

    def test_invalid_rows(self):
        with pytest.raises(ConfigurationError):
            TestTimeEstimator().measurement_cost(100, 32.0, n_rows=0)

    def test_invalid_measurements(self):
        with pytest.raises(ConfigurationError):
            TestTimeEstimator().measurement_cost(100, 32.0, n_measurements=0)

    def test_single_bank_is_table4_multi_bank_is_table5(self):
        """The estimator must price n_banks=1 off the Table 4 schedule and
        n_banks=16 off the Table 5 schedule, not scale one into the other."""
        est = TestTimeEstimator()
        single = est.measurement_cost(1000, 32.0, n_banks=1)
        multi = est.measurement_cost(1000, 32.0, n_banks=16)
        assert single.time_ns == pytest.approx(
            single_bank_schedule(1000, 32.0).total_ns
        )
        assert multi.time_ns == pytest.approx(
            multi_bank_schedule(1000, 32.0, n_banks=16).total_ns
        )
        # One 16-bank schedule covers 16 rows: per-row it must beat 16
        # single-bank schedules but cost more than one.
        assert single.time_ns < multi.time_ns < 16 * single.time_ns

    def test_row_rounding_up_to_bank_multiples(self):
        est = TestTimeEstimator()
        # 17 rows over 16 banks need 2 sequential rounds, same as 32 rows.
        a = est.measurement_cost(1000, 32.0, n_banks=16, n_rows=17)
        b = est.measurement_cost(1000, 32.0, n_banks=16, n_rows=32)
        assert a.time_ns == pytest.approx(b.time_ns)
