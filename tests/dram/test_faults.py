"""Tests for the VRD fault model."""

import numpy as np
import pytest

from repro.dram.faults import (
    Condition,
    ModuleFaultModel,
    RowVrdProcess,
    VrdModelParams,
    classify_pattern,
    effective_hammers,
)
from repro.errors import ConfigurationError


def make_process(seed=7, **overrides) -> RowVrdProcess:
    params = VrdModelParams(mean_rdt=2000.0, **overrides)
    model = ModuleFaultModel(params, row_bits=8192, seed=seed, module_id="T")
    return model.process(0, 5)


REF = Condition("checkered0", 35.0, 50.0)


class TestCondition:
    def test_canonical_quantizes(self):
        cond = Condition("checkered0", 35.0401, 50.3)
        canon = cond.canonical()
        assert canon.t_agg_on == 35.0
        assert canon.temperature == 50.5

    def test_unknown_pattern_becomes_other(self):
        assert Condition("weird", 35.0, 50.0).canonical().pattern == "other"

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            Condition("checkered0", -1.0, 50.0)
        with pytest.raises(ConfigurationError):
            Condition("checkered0", 35.0, 300.0)


class TestClassifyPattern:
    @pytest.mark.parametrize(
        "victim,aggressor,expected",
        [
            (0x00, 0xFF, "rowstripe0"),
            (0xFF, 0x00, "rowstripe1"),
            (0x55, 0xAA, "checkered0"),
            (0xAA, 0x55, "checkered1"),
            (0x12, 0x34, "other"),
            (0x55, 0x55, "other"),
        ],
    )
    def test_table2(self, victim, aggressor, expected):
        assert classify_pattern(victim, aggressor) == expected


class TestRowVrdProcess:
    def test_series_reproducible(self):
        a = make_process().latent_series(REF, 500)
        b = make_process().latent_series(REF, 500)
        assert np.array_equal(a, b)

    def test_series_positive_and_varying(self):
        series = make_process().latent_series(REF, 2000)
        assert np.all(series > 0)
        assert np.unique(series).size > 1

    def test_different_conditions_different_series(self):
        process = make_process()
        a = process.latent_series(REF, 200)
        b = process.latent_series(Condition("rowstripe1", 35.0, 50.0), 200)
        assert not np.array_equal(a, b)

    def test_rowpress_lowers_threshold(self):
        process = make_process()
        short = process.latent_series(REF, 2000).mean()
        long = process.latent_series(Condition("checkered0", 7800.0, 50.0), 2000)
        assert long.mean() < short

    def test_temperature_lowers_base_rdt(self):
        process = make_process(trap_count_mean=0.0, big_trap_prob=0.0,
                               rare_trap_prob=0.0)
        cold = process.factors(Condition("checkered0", 35.0, 50.0))
        hot = process.factors(Condition("checkered0", 35.0, 80.0))
        assert hot.rdt_factor < cold.rdt_factor

    def test_begin_measurement_changes_sample(self):
        process = make_process()
        values = set()
        for _ in range(50):
            process.begin_measurement(REF)
            values.add(process.current_threshold(REF))
        assert len(values) > 1

    def test_trial_flips_respects_threshold(self):
        process = make_process()
        process.begin_measurement(REF)
        threshold = process.current_threshold(REF)
        assert process.trial_flips(REF, threshold * 0.5) == []
        flips = process.trial_flips(REF, threshold)
        assert flips, "hammering at the threshold must flip the weakest cell"
        assert all(0 <= bit < 8192 for bit in flips)

    def test_overdrive_flips_more_cells(self):
        process = make_process()
        process.begin_measurement(REF)
        threshold = process.current_threshold(REF)
        at_threshold = process.trial_flips(REF, threshold)
        far_above = process.trial_flips(REF, threshold * 3)
        assert len(far_above) >= len(at_threshold)
        assert len(far_above) > 1

    def test_already_flipped_excluded(self):
        process = make_process()
        process.begin_measurement(REF)
        threshold = process.current_threshold(REF)
        first = set(process.trial_flips(REF, threshold * 2))
        second = process.trial_flips(REF, threshold * 2, already_flipped=first)
        assert not set(second) & first

    def test_negative_hammers_rejected(self):
        process = make_process()
        with pytest.raises(ConfigurationError):
            process.trial_flips(REF, -1.0)

    def test_first_flip_margin_matches_threshold(self):
        process = make_process()
        factors = process.factors(REF)
        process.begin_measurement(REF)
        threshold = process.current_threshold(REF)
        state = process._state(REF)
        assert threshold == pytest.approx(
            state.latent_rdt * (1.0 + factors.first_flip_margin)
        )


class TestModuleFaultModel:
    def make(self) -> ModuleFaultModel:
        return ModuleFaultModel(
            VrdModelParams(mean_rdt=2000.0), row_bits=8192, seed=3, module_id="T"
        )

    def test_process_cached(self):
        model = self.make()
        assert model.process(0, 1) is model.process(0, 1)
        assert model.process(0, 1) is not model.process(0, 2)

    def test_spatial_variation(self):
        model = self.make()
        bases = {model.process(0, row).base_rdt for row in range(20)}
        assert len(bases) == 20

    def test_trial_flips_zero_drive(self):
        model = self.make()
        assert model.trial_flips(0, 1, REF, 0, 0) == []


class TestEffectiveHammers:
    def test_balanced_double_sided(self):
        assert effective_hammers(1000, 1000) == 1000

    def test_single_sided_much_weaker(self):
        assert effective_hammers(1000, 0) == 250.0

    def test_imbalanced(self):
        assert effective_hammers(800, 1000) == 800 + 0.25 * 200

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_hammers(-1, 5)


class TestTrialFlipSeries:
    """The batched trial kernel vs n scalar begin/trial rounds."""

    def test_matches_scalar_rounds(self):
        for hammers in (500.0, 1500.0, 2500.0):
            batched = make_process()
            scalar = make_process()
            matrix = batched.trial_flip_series(REF, hammers, 300)
            rows = []
            for _ in range(300):
                scalar.begin_measurement(REF)
                flips = scalar.trial_flips(REF, hammers)
                row = np.zeros(matrix.shape[1], dtype=bool)
                bit_of = {
                    int(bit): index
                    for index, bit in enumerate(scalar.weak_cell_bits)
                }
                for bit in flips:
                    row[bit_of[int(bit)]] = True
                rows.append(row)
            np.testing.assert_array_equal(matrix, np.array(rows))
            # Post-run state: the stateful stream continues identically.
            batched.begin_measurement(REF)
            scalar.begin_measurement(REF)
            assert batched.current_threshold(REF) == scalar.current_threshold(
                REF
            )

    def test_empty_series_is_a_no_op(self):
        batched = make_process()
        scalar = make_process()
        matrix = batched.trial_flip_series(REF, 1000.0, 0)
        assert matrix.shape[0] == 0
        batched.begin_measurement(REF)
        scalar.begin_measurement(REF)
        assert batched.current_threshold(REF) == scalar.current_threshold(REF)

    def test_negative_hammers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_process().trial_flip_series(REF, -1.0, 10)
