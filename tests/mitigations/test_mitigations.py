"""Unit tests for the four mitigation mechanisms, driven one exact
``step`` per activation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.mitigations import (
    Graphene,
    Mint,
    Para,
    Prac,
    apply_guardband,
    build_mitigation,
)
from repro.mitigations.base import RFM_BLOCK_NS, neighbors_of
from repro.mitigations.para import para_probability
from repro.mitigations.prac import quantize_pow2


def started(mitigation):
    """A mechanism at the start of a run on a 4-bank, 2048-row device."""
    mitigation.start(4, 2048)
    return mitigation


class TestBase:
    def test_apply_guardband(self):
        assert apply_guardband(128, 0.25) == 96.0
        assert apply_guardband(128, 0.0) == 128.0
        with pytest.raises(ConfigurationError):
            apply_guardband(128, 1.0)
        with pytest.raises(ConfigurationError):
            apply_guardband(0, 0.1)

    def test_neighbors_of(self):
        assert neighbors_of(2, 10) == [(2, 9), (2, 11)]
        assert neighbors_of(0, 0) == [(0, 1)]

    def test_build_by_name(self):
        for name, cls in [
            ("graphene", Graphene), ("PRAC", Prac), ("para", Para),
            ("MINT", Mint),
        ]:
            assert isinstance(build_mitigation(name, 1024), cls)
        with pytest.raises(ConfigurationError):
            build_mitigation("silverbullet", 1024)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            Graphene(0.5)


class TestGraphene:
    def test_triggers_at_half_threshold(self):
        graphene = started(Graphene(64))
        actions = [graphene.step(0, 7) for _ in range(40)]
        triggered = [a for a in actions if a is not None]
        assert len(triggered) == 1
        # Triggers exactly when the count reaches threshold/2 = 32.
        victims, _, _ = actions[31]
        assert victims == [(0, 6), (0, 8)]

    def test_counter_resets_after_refresh(self):
        graphene = started(Graphene(64))
        triggers = 0
        for _ in range(128):
            if graphene.step(0, 7) is not None:
                triggers += 1
        assert triggers == 4  # every 32 activations

    def test_window_reset(self):
        graphene = started(Graphene(64))
        for _ in range(20):
            graphene.step(0, 7)
        graphene.on_refresh_window()
        # Table cleared: 31 more activations must not trigger.
        actions = [graphene.step(0, 7) for _ in range(31)]
        assert all(a is None for a in actions)

    def test_tracks_multiple_banks_independently(self):
        graphene = started(Graphene(64))
        for _ in range(31):
            assert graphene.step(0, 7) is None
            assert graphene.step(1, 7) is None
        assert graphene.step(0, 7) is not None

    def test_misra_gries_no_hot_row_escapes(self):
        """Even with table pressure from many cold rows, a row activated
        refresh_at times more than the spill level must trigger."""
        graphene = Graphene(64)
        # The table a 1024-activation window needs.
        graphene.table_size = math.ceil(1024 / graphene.refresh_at)
        started(graphene)
        triggered = False
        cold = 0
        for i in range(6000):
            # interleave: hot row every other activation, cold rows cycle
            if i % 2 == 0:
                action = graphene.step(0, 7)
                triggered = triggered or action is not None
            else:
                cold = (cold + 1) % 500
                graphene.step(0, 1000 + cold)
        assert triggered


class TestPrac:
    def test_quantize_pow2(self):
        assert quantize_pow2(51.2) == 64
        assert quantize_pow2(102.4) == 128
        assert quantize_pow2(1.0) == 1
        assert quantize_pow2(0.3) == 1

    def test_backoff_cadence(self):
        prac = started(Prac(64))
        actions = [prac.step(0, 7) for _ in range(200)]
        triggers = [i for i, a in enumerate(actions) if a is not None]
        assert triggers  # fires periodically
        assert all(actions[i][1] == RFM_BLOCK_NS for i in triggers)
        # Period equals the quantized back-off threshold.
        gaps = {b - a for a, b in zip(triggers, triggers[1:])}
        assert gaps == {prac.backoff_at}

    def test_quantization_step_function(self):
        # Footnote 16: RDT 128 -> 115 changes nothing.
        assert Prac(128).backoff_at == Prac(115.2).backoff_at

    def test_refresh_window_clears(self):
        prac = started(Prac(64))
        for _ in range(prac.backoff_at - 1):
            prac.step(0, 7)
        prac.on_refresh_window()
        assert prac.step(0, 7) is None


class TestPara:
    def test_probability_scales_inverse_threshold(self):
        assert Para(128).p > Para(1024).p
        assert para_probability(1e12) < 1e-10

    def test_low_threshold_approaches_certain_refresh(self, monkeypatch):
        monkeypatch.setattr(
            "repro.mitigations.para.FAILURE_PROBABILITY", 1e-30
        )
        assert Para(2).p > 0.999

    def test_refresh_rate_matches_p(self):
        para = started(Para(64, seed=3))
        triggered = sum(
            para.step(0, 7) is not None for _ in range(20_000)
        )
        assert triggered / 20_000 == pytest.approx(para.p, rel=0.1)

    def test_security_property(self):
        # P(attacker reaches T activations with no refresh) <= 1e-10.
        para = Para(500)
        assert (1 - para.p) ** 500 <= 1e-10 * 1.01


class TestMint:
    def test_rfm_cadence(self):
        mint = started(Mint(128))
        actions = [mint.step(0, 7) for _ in range(200)]
        triggers = [i for i, a in enumerate(actions) if a is not None]
        gaps = {b - a for a, b in zip(triggers, triggers[1:])}
        assert gaps == {mint.rfm_every}
        assert mint.rfm_every == 32  # 128 / 4

    def test_quantization_step_function(self):
        assert Mint(128).rfm_every == Mint(115.2).rfm_every

    def test_sampled_row_is_refreshed(self):
        mint = started(Mint(64, seed=1))
        victims = []
        for _ in range(64):
            action = mint.step(0, 7)
            if action is not None:
                victims.extend(action[0])
        # Only row 7 was activated, so the sample must be row 7.
        assert set(victims) <= {(0, 6), (0, 8)}
        assert victims

    def test_counts_per_bank(self):
        mint = started(Mint(64))
        for _ in range(mint.rfm_every - 1):
            assert mint.step(0, 7) is None
        # A different bank has its own count.
        assert mint.step(1, 7) is None
        assert mint.step(0, 7) is not None
