"""Tests for the attack-vs-mitigation security evaluation."""

import numpy as np
import pytest

from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.errors import ConfigurationError
from repro.security import attack as attack_module
from repro.security import attack_escape, exposure_windows, profile_and_attack
from tests.conftest import make_module
from tests.differential.harness import (
    attack_window_loop,
    exposure_per_window,
    sequential_state,
)


class TestExposure:
    def test_graphene_bound_is_half_threshold(self):
        rng = np.random.default_rng(0)
        assert exposure_per_window("graphene", 1000, rng) == 500.0

    def test_prac_bound_is_quantized(self):
        rng = np.random.default_rng(0)
        # 0.8 * 1000 = 800 -> nearest power of two is 1024: PRAC's pow2
        # compare can exceed the configured threshold.
        assert exposure_per_window("prac", 1000, rng) == 1024.0

    def test_para_exposure_is_random_and_bounded_in_distribution(self):
        rng = np.random.default_rng(0)
        samples = [exposure_per_window("para", 1000, rng) for _ in range(2000)]
        # Mean ~ 1 / (2p) with p ~ 23/T.
        expected_mean = 1000.0 / (2 * 23.03)
        assert np.mean(samples) == pytest.approx(expected_mean, rel=0.2)

    def test_none_is_unbounded(self):
        rng = np.random.default_rng(0)
        assert exposure_per_window("none", 1.0, rng) == 1e7

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            exposure_per_window("blockhammer", 1000, np.random.default_rng(0))


class TestAttack:
    def test_no_mitigation_flips_immediately(self, module, reference_config):
        outcome = attack_escape(
            module, 100, reference_config, "none", threshold=1.0, windows=10
        )
        assert outcome.flipped
        assert outcome.first_flip_window == 0

    def test_generous_threshold_survives(self, module, reference_config):
        # Threshold far below any instantaneous RDT: deterministic
        # trackers never expose the victim enough.
        outcome = attack_escape(
            module, 100, reference_config, "graphene", threshold=50.0,
            windows=500,
        )
        assert outcome.survived
        assert outcome.min_exposure_margin > 0

    def test_overconfigured_tracker_fails(self, module, reference_config):
        # Threshold far above the row's RDT: the first window flips.
        outcome = attack_escape(
            module, 100, reference_config, "graphene", threshold=1e6,
            windows=50,
        )
        assert outcome.flipped

    def test_outcome_reports_min_rdt(self, module, reference_config):
        outcome = attack_escape(
            module, 100, reference_config, "graphene", threshold=50.0,
            windows=200,
        )
        assert outcome.min_rdt_seen > 0
        assert outcome.windows == 200

    def test_deterministic_given_seed(self, module, reference_config):
        a = attack_escape(
            module, 101, reference_config, "para", threshold=500.0,
            windows=100, seed=9,
        )
        module2 = make_module()
        module2.disable_interference_sources()
        b = attack_escape(
            module2, 101, reference_config, "para", threshold=500.0,
            windows=100, seed=9,
        )
        assert a.flipped == b.flipped
        assert a.min_rdt_seen == b.min_rdt_seen

    def test_validation(self, module, reference_config):
        with pytest.raises(ConfigurationError):
            attack_escape(
                module, 100, reference_config, "graphene", threshold=100.0,
                windows=0,
            )


class TestProfileAndAttack:
    def test_margin_protects_prac(self, module, reference_config):
        """PRAC's power-of-two rounding makes a no-margin configuration
        risky; a >=10% guardband restores the headroom (the paper's
        recommendation)."""
        flips_tight = 0
        flips_margin = 0
        for victim in range(40, 52):
            tight = profile_and_attack(
                module, victim, reference_config, "prac",
                profile_measurements=5, margin=0.0, windows=400, seed=victim,
            )
            guarded = profile_and_attack(
                module, victim, reference_config, "prac",
                profile_measurements=5, margin=0.25, windows=400, seed=victim,
            )
            flips_tight += tight.flipped
            flips_margin += guarded.flipped
        assert flips_margin <= flips_tight

    def test_validation(self, module, reference_config):
        with pytest.raises(ConfigurationError):
            profile_and_attack(
                module, 100, reference_config, "prac",
                profile_measurements=0, margin=0.1,
            )
        with pytest.raises(ConfigurationError):
            profile_and_attack(
                module, 100, reference_config, "prac",
                profile_measurements=5, margin=1.0,
            )


class TestBatchedAttack:
    """The batched exposure draws and the threshold walk must be
    bit-identical to per-window scalar stepping."""

    def test_exposure_windows_match_scalar_draws(self):
        for kind, threshold in (
            ("graphene", 1000.0),
            ("prac", 1000.0),
            ("para", 1000.0),
            ("para", 30.0),  # per_hammer >= 1 deterministic branch
            ("mint", 1000.0),
            ("none", 1.0),
        ):
            batched_rng = np.random.default_rng(7)
            scalar_rng = np.random.default_rng(7)
            batch = exposure_windows(kind, threshold, batched_rng, 500)
            scalar = np.array(
                [
                    exposure_per_window(kind, threshold, scalar_rng)
                    for _ in range(500)
                ]
            )
            np.testing.assert_array_equal(batch, scalar)
            # Both generators must have consumed the same stream.
            assert batched_rng.random() == scalar_rng.random()

    def test_attack_escape_batched_equals_scalar(self):
        for kind in ("para", "mint", "graphene", "none"):
            batched_module = make_module(seed=5)
            batched_module.disable_interference_sources()
            scalar_module = make_module(seed=5)
            scalar_module.disable_interference_sources()
            config = TestConfig(
                CHECKERED0, t_agg_on_ns=batched_module.timing.tRAS
            )
            # Two calls per module: the second resumes the first's chain.
            for windows in (300, 700):
                batched = attack_escape(
                    batched_module, 100, config, kind, threshold=800.0,
                    windows=windows, seed=3,
                )
                scalar = attack_window_loop(
                    scalar_module, 100, config, kind, threshold=800.0,
                    windows=windows, seed=3,
                )
                assert batched == scalar
                assert sequential_state(batched_module, 100, config) == (
                    sequential_state(scalar_module, 100, config)
                )

    @pytest.mark.parametrize(
        "kind, threshold", [("none", 1.0), ("para", 1e9), ("graphene", 1e9)]
    )
    def test_huge_window_budget_stays_bounded(
        self, module, reference_config, kind, threshold
    ):
        # Exposures are drawn in bounded chunks, so an attack that flips
        # at once returns without sizing anything by ``windows``.
        outcome = attack_escape(
            module, 80, reference_config, kind, threshold=threshold,
            windows=10**9,
        )
        assert outcome.flipped
        assert outcome.first_flip_window == 0
        assert outcome.windows == 1

    def test_exposure_windows_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            exposure_windows("para", 1000.0, rng, 0)
        with pytest.raises(ConfigurationError):
            exposure_windows("para", 0.5, rng, 10)
        with pytest.raises(ConfigurationError):
            exposure_windows("blockhammer", 1000.0, rng, 10)


class TestAttackChunks:
    """``attack_escape``'s exposure chunk sizes change nothing: not the
    outcome, the victim's chain, or the chain's generator, also when the
    walk stops inside a chunk."""

    @pytest.mark.parametrize(
        "kind, threshold",
        # graphene flips at windows 1081 and 1268, then holds; mint holds,
        # flips at window 723, then holds.
        [("graphene", 5720.0), ("mint", 2500.0)],
    )
    def test_chunk_sizes_change_nothing(self, monkeypatch, kind, threshold):
        runs = []
        for chunks in (
            (1, 1), (3, 7),
            (attack_module._MIN_CHUNK, attack_module._MAX_CHUNK),
        ):
            monkeypatch.setattr(attack_module, "_MIN_CHUNK", chunks[0])
            monkeypatch.setattr(attack_module, "_MAX_CHUNK", chunks[1])
            module = make_module(seed=5)
            module.disable_interference_sources()
            config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
            outcomes = [
                attack_escape(
                    module, 100, config, kind, threshold, windows=1500, seed=3
                )
                for _ in range(3)
            ]
            process = module.fault_model.process(
                0, module.bank(0).mapping.to_physical(100)
            )
            state = process._state(config.condition(module.timing))
            runs.append((
                outcomes,
                list(state.occupancy),
                state.latent_rdt,
                state.measurement_index,
                state.rng.bit_generator.state,
            ))
        assert runs[0] == runs[1] == runs[2]
        assert any(outcome.flipped for outcome in runs[0][0])
        assert not all(outcome.flipped for outcome in runs[0][0])
