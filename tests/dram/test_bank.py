"""Tests for the bank state machine: timings, stress, disturbance."""

import numpy as np
import pytest

from repro.errors import (
    CommandSequenceError,
    TimingViolationError,
)
from tests.conftest import make_module


REF_T = 1000.0


def open_row(module, bank, row, at):
    module.activate(bank, row, at)
    return at


def write_full(module, bank, row, byte, start):
    """ACT + write + PRE one row; returns the time after precharge."""
    t = module.timing
    module.activate(bank, row, start)
    write_at = start + t.tRCD + 127 * t.tCCD_L
    data = np.full(module.geometry.row_bytes, byte, dtype=np.uint8)
    module.write_row(bank, row, data, write_at)
    pre_at = write_at + t.tWR
    module.precharge(bank, pre_at)
    return pre_at + t.tRP + 1


class TestSequencing:
    def test_double_activate_rejected(self):
        module = make_module()
        module.activate(0, 5, REF_T)
        with pytest.raises(CommandSequenceError):
            module.activate(0, 6, REF_T + 1000)

    def test_column_access_requires_open_row(self):
        module = make_module()
        data = np.zeros(module.geometry.row_bytes, dtype=np.uint8)
        with pytest.raises(CommandSequenceError):
            module.write_row(0, 5, data, REF_T)
        module.activate(0, 5, REF_T)
        with pytest.raises(CommandSequenceError):
            module.write_row(0, 6, data, REF_T + 100)

    def test_precharge_idle_bank_is_noop(self):
        module = make_module()
        module.precharge(0, REF_T)  # must not raise

    def test_wrong_size_write_rejected(self):
        module = make_module()
        module.activate(0, 5, REF_T)
        with pytest.raises(CommandSequenceError):
            module.write_row(0, 5, np.zeros(3, dtype=np.uint8), REF_T + 100)


class TestTimings:
    def test_tras_violation(self):
        module = make_module()
        module.activate(0, 5, REF_T)
        with pytest.raises(TimingViolationError):
            module.precharge(0, REF_T + 1.0)

    def test_trp_violation(self):
        module = make_module()
        t = module.timing
        module.activate(0, 5, REF_T)
        module.precharge(0, REF_T + t.tRAS)
        with pytest.raises(TimingViolationError):
            module.activate(0, 6, REF_T + t.tRAS + 0.5 * t.tRP)

    def test_trcd_violation(self):
        module = make_module()
        module.activate(0, 5, REF_T)
        data = np.zeros(module.geometry.row_bytes, dtype=np.uint8)
        with pytest.raises(TimingViolationError):
            module.write_row(0, 5, data, REF_T + 1.0)

    def test_trc_violation(self):
        module = make_module()
        t = module.timing
        module.activate(0, 5, REF_T)
        module.precharge(0, REF_T + t.tRAS)
        # tRP satisfied but tRC not (tRC = tRAS + tRP; rounding margins).
        ok_at = REF_T + t.tRC
        module.activate(0, 6, ok_at)  # exactly legal


class TestDataPath:
    def test_write_then_read_roundtrip(self):
        module = make_module()
        t = module.timing
        end = write_full(module, 0, 5, 0xA5, REF_T)
        module.activate(0, 5, end)
        data = module.read_row(0, 5, end + t.tRCD)
        assert np.all(data == 0xA5)

    def test_unwritten_row_has_stable_powerup_content(self):
        module = make_module()
        t = module.timing
        module.activate(0, 9, REF_T)
        first = module.read_row(0, 9, REF_T + t.tRCD)
        second = module.read_row(0, 9, REF_T + t.tRCD + 10)
        assert np.array_equal(first, second)


class TestStressAccounting:
    def test_bulk_hammer_counts(self):
        module = make_module()
        bank = module.bank(0)
        t = module.timing
        module.bulk_hammer(0, [99, 101], 50, t.tRAS, REF_T)
        stress = bank.stress_of(100)
        assert stress.below_acts == 50 and stress.above_acts == 50
        assert stress.mean_on_ns == pytest.approx(t.tRAS)

    def test_bulk_hammer_matches_manual_commands(self):
        manual = make_module(seed=77)
        bulk = make_module(seed=77)
        t = manual.timing
        now = REF_T
        for _ in range(10):
            for row in (99, 101):
                manual.activate(0, row, now)
                now += t.tRAS
                manual.precharge(0, now)
                now += t.tRP
        end = bulk.bulk_hammer(0, [99, 101], 10, t.tRAS, REF_T)
        s_manual = manual.bank(0).stress_of(100)
        s_bulk = bulk.bank(0).stress_of(100)
        assert s_manual.below_acts == s_bulk.below_acts == 10
        assert s_manual.above_acts == s_bulk.above_acts == 10
        assert s_manual.below_on_ns == pytest.approx(s_bulk.below_on_ns)
        assert end == pytest.approx(now)

    def test_write_resets_victim_stress(self):
        module = make_module()
        t = module.timing
        module.bulk_hammer(0, [99, 101], 50, t.tRAS, REF_T)
        write_full(module, 0, 100, 0x55, REF_T + 1_000_000)
        assert module.bank(0).stress_of(100).total_acts == 0

    def test_edge_rows_have_one_neighbor(self):
        module = make_module()
        t = module.timing
        module.bulk_hammer(0, [0], 10, t.tRAS, REF_T)
        assert module.bank(0).stress_of(1).total_acts == 10

    def test_bulk_hammer_below_tras_rejected(self):
        module = make_module()
        with pytest.raises(TimingViolationError):
            module.bulk_hammer(0, [5], 10, 1.0, REF_T)


class TestDisturbance:
    def test_hammering_past_threshold_flips_victim(self):
        module = make_module()
        t = module.timing
        now = write_full(module, 0, 100, 0x55, REF_T)
        now = write_full(module, 0, 99, 0xAA, now)
        now = write_full(module, 0, 101, 0xAA, now)
        process = module.fault_model.process(0, 100)
        from repro.dram.faults import Condition
        threshold = process.current_threshold(Condition("checkered0", t.tRAS, 50.0))
        now = module.bulk_hammer(0, [99, 101], int(threshold * 1.5), t.tRAS, now)
        module.activate(0, 100, now + t.tRP)
        data = module.read_row(0, 100, now + t.tRP + t.tRCD)
        assert np.any(data != 0x55)
        assert module.bank(0).injected_flips(100)

    def test_insufficient_hammering_no_flips(self):
        module = make_module()
        t = module.timing
        now = write_full(module, 0, 100, 0x55, REF_T)
        now = write_full(module, 0, 99, 0xAA, now)
        now = write_full(module, 0, 101, 0xAA, now)
        now = module.bulk_hammer(0, [99, 101], 10, t.tRAS, now)
        module.activate(0, 100, now + t.tRP)
        data = module.read_row(0, 100, now + t.tRP + t.tRCD)
        assert np.all(data == 0x55)

    def test_reading_twice_does_not_unflip(self):
        module = make_module()
        t = module.timing
        now = write_full(module, 0, 100, 0x55, REF_T)
        now = write_full(module, 0, 99, 0xAA, now)
        now = write_full(module, 0, 101, 0xAA, now)
        process = module.fault_model.process(0, 100)
        from repro.dram.faults import Condition
        threshold = process.current_threshold(Condition("checkered0", t.tRAS, 50.0))
        now = module.bulk_hammer(0, [99, 101], int(threshold * 1.2), t.tRAS, now)
        module.activate(0, 100, now + t.tRP)
        first = module.read_row(0, 100, now + t.tRP + t.tRCD)
        second = module.read_row(0, 100, now + t.tRP + t.tRCD + 50)
        assert np.array_equal(first, second)
