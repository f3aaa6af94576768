"""Tests for the Sec. 6.3-6.4 guardband analyses."""

import numpy as np
import pytest

from repro.core.config import TestConfig
from repro.core.guardband import (
    TRIAL_CHUNK,
    GuardbandProbability,
    bit_error_rate,
    guardband_probability_analysis,
    margin_bitflip_experiment,
)
from repro.core.montecarlo import probability_of_min
from repro.core.patterns import CHECKERED0
from repro.core.series import RdtSeries
from repro.dram.faults import RowVrdProcess
from repro.errors import MeasurementError
from tests.conftest import make_module
from tests.differential.harness import (
    margin_fingerprint,
    margin_trial_loop,
    sequential_state,
)


def synthetic_series(count=20, seed=0):
    rng = np.random.default_rng(seed)
    return [
        RdtSeries(np.round(rng.normal(1000, 15, 1000)), row=i)
        for i in range(count)
    ]


class TestGuardbandProbability:
    def test_structure(self):
        results = guardband_probability_analysis(
            synthetic_series(), margins=(0.10, 0.50), n_values=(1, 50)
        )
        assert len(results) == 4
        for cell in results:
            assert 0 <= cell.min_probability <= cell.mean_probability <= 1

    def test_larger_margin_raises_probability(self):
        series = synthetic_series()
        results = {
            (cell.margin, cell.n): cell
            for cell in guardband_probability_analysis(
                series, margins=(0.10, 0.50), n_values=(5,)
            )
        }
        assert (
            results[(0.50, 5)].mean_probability
            >= results[(0.10, 5)].mean_probability
        )

    def test_more_measurements_raise_probability(self):
        series = synthetic_series()
        results = {
            cell.n: cell
            for cell in guardband_probability_analysis(
                series, margins=(0.10,), n_values=(1, 50, 500)
            )
        }
        assert (
            results[1].mean_probability
            <= results[50].mean_probability
            <= results[500].mean_probability
        )

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            guardband_probability_analysis([])


class TestMarginBitflips:
    def test_experiment_structure(self, module, reference_config):
        results = margin_bitflip_experiment(
            module,
            row=100,
            config=reference_config,
            margins=(0.10, 0.30),
            trials=500,
        )
        assert [r.margin for r in results] == [0.10, 0.30]
        for result in results:
            assert result.hammer_count > 0
            assert result.flipping_trials <= result.trials
            assert result.n_unique_flips <= module.geometry.row_bits

    def test_larger_margin_fewer_flips(self, module, reference_config):
        results = margin_bitflip_experiment(
            module,
            row=100,
            config=reference_config,
            margins=(0.10, 0.50),
            trials=2000,
        )
        by_margin = {r.margin: r for r in results}
        assert (
            by_margin[0.50].flipping_trials <= by_margin[0.10].flipping_trials
        )

    def test_flips_by_chip_and_codeword(self, module, reference_config):
        results = margin_bitflip_experiment(
            module, row=100, config=reference_config, margins=(0.10,),
            trials=2000,
        )
        result = results[0]
        grouped = result.flips_by_chip(module.geometry)
        assert sum(len(bits) for bits in grouped.values()) == result.n_unique_flips
        assert result.max_flips_per_codeword() <= max(1, result.n_unique_flips)

    def test_invalid_margin(self, module, reference_config):
        with pytest.raises(MeasurementError):
            margin_bitflip_experiment(
                module, 100, reference_config, margins=(1.5,), trials=10
            )

    def test_bit_error_rate(self, module, reference_config):
        results = margin_bitflip_experiment(
            module, 100, reference_config, margins=(0.10,), trials=100
        )
        ber = bit_error_rate(results, module.geometry.row_bits)
        assert 0.0 <= ber <= 1.0
        with pytest.raises(MeasurementError):
            bit_error_rate([], 100)


def reference_probability_analysis(series_list, margins, n_values):
    """The pre-vectorization per-cell implementation, kept as the oracle."""
    if not series_list:
        raise MeasurementError("need at least one series")
    output = []
    for margin in margins:
        for n in n_values:
            probabilities = []
            for series in series_list:
                values = series.require_valid()
                if n > values.size:
                    continue
                probabilities.append(
                    probability_of_min(values, n, within=margin)
                )
            if not probabilities:
                continue
            output.append(
                GuardbandProbability(
                    margin=margin,
                    n=n,
                    mean_probability=float(np.mean(probabilities)),
                    min_probability=float(np.min(probabilities)),
                )
            )
    return output


class TestVectorizedEquality:
    def _series_list(self):
        rng = np.random.default_rng(11)
        series_list = []
        for row in range(6):
            values = rng.normal(2000.0, 150.0, size=400)
            values[rng.random(400) < 0.02] = np.nan  # failed sweeps
            series_list.append(RdtSeries(values, row=row))
        return series_list

    def test_analysis_matches_per_cell_reference(self):
        series_list = self._series_list()
        margins = (0.0, 0.05, 0.10, 0.30, 0.50)
        n_values = (1, 3, 5, 10, 50, 399, 500)
        fast = guardband_probability_analysis(series_list, margins, n_values)
        reference = reference_probability_analysis(
            series_list, margins, n_values
        )
        assert fast == reference

    def test_analysis_rejects_bad_cells(self):
        series_list = self._series_list()
        with pytest.raises(MeasurementError):
            guardband_probability_analysis(series_list, margins=(-0.1,))
        with pytest.raises(MeasurementError):
            guardband_probability_analysis(
                series_list, margins=(0.1,), n_values=(0,)
            )

    def test_margin_experiment_batched_equals_scalar(self):
        """The kernel route equals the per-trial oracle, results and chain
        state, over consecutive calls that carry one row's chain over."""
        outcomes = {}
        for name, run in (
            ("kernel", margin_bitflip_experiment),
            ("oracle", margin_trial_loop),
        ):
            module = make_module(seed=21)
            config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
            outcomes[name] = [
                (
                    margin_fingerprint(run(
                        module, row, config, margins=(0.02, 0.2, 0.4),
                        trials=400,
                    )),
                    sequential_state(module, row, config),
                )
                for row in (120, 57, 120)
            ]
        assert outcomes["kernel"] == outcomes["oracle"]
        assert any(
            flipping for results, _ in outcomes["oracle"]
            for _, _, _, flipping, _ in results
        )


class TestMarginChunks:
    """``margin_bitflip_experiment`` feeds the kernel bounded chunks."""

    def _setup(self):
        module = make_module(seed=5)
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
        return module, config

    def test_no_kernel_call_exceeds_the_chunk(self, monkeypatch):
        sizes = []
        kernel = RowVrdProcess.trial_flip_series

        def spy(self, condition, effective_hammers, n):
            sizes.append(n)
            return kernel(self, condition, effective_hammers, n)

        monkeypatch.setattr(RowVrdProcess, "trial_flip_series", spy)
        module, config = self._setup()
        margin_bitflip_experiment(
            module, 30, config, margins=(0.1, 0.3), trials=10_000
        )
        assert sizes == [TRIAL_CHUNK, TRIAL_CHUNK, 10_000 - 2 * TRIAL_CHUNK] * 2
        sizes.clear()
        margin_bitflip_experiment(module, 30, config, margins=(0.1,), trials=2000)
        assert sizes == [2000]

    def test_chunked_run_equals_oracle(self):
        outcomes = {}
        for name, run in (
            ("kernel", margin_bitflip_experiment),
            ("oracle", margin_trial_loop),
        ):
            module, config = self._setup()
            results = run(
                module, 30, config, margins=(0.02, 0.1), trials=10_000
            )
            outcomes[name] = (
                margin_fingerprint(results),
                sequential_state(module, 30, config),
            )
        assert outcomes["kernel"] == outcomes["oracle"]

    def test_chunk_size_changes_nothing(self, monkeypatch):
        """Results, chain and generator do not depend on the chunk size."""
        import repro.core.guardband as guardband

        runs = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(guardband, "TRIAL_CHUNK", chunk)
            module, config = self._setup()
            fingerprints = [
                margin_fingerprint(margin_bitflip_experiment(
                    module, 30, config, margins=(0.02, 0.1), trials=300
                ))
                for _ in range(2)
            ]
            process = module.fault_model.process(
                0, module.bank(0).mapping.to_physical(30)
            )
            rng = process._state(config.condition(module.timing)).rng
            runs.append((
                fingerprints,
                sequential_state(module, 30, config),
                rng.bit_generator.state,
            ))
        assert runs[0] == runs[1] == runs[2]
        assert any(
            flipping for results in runs[0][0]
            for _, _, _, flipping, _ in results
        )

    def test_zero_and_negative_trials(self):
        module, config = self._setup()
        before = sequential_state(module, 30, config)
        (result,) = margin_bitflip_experiment(
            module, 30, config, margins=(0.1,), trials=0
        )
        assert result.flipping_trials == 0 and not result.unique_flips
        assert sequential_state(module, 30, config) == before
        with pytest.raises(MeasurementError):
            margin_bitflip_experiment(
                module, 30, config, margins=(0.1,), trials=-1
            )
