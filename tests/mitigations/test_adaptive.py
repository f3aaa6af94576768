"""Tests for the dynamically reconfigured mitigation wrapper."""

import pytest

from repro.errors import ConfigurationError
from repro.mitigations import Graphene
from repro.mitigations.adaptive import AdaptiveMitigation, RECONFIGURE_STALL_NS
from repro.profiling import StaticThresholdPolicy


class _ScriptedPolicy:
    """Policy returning a scripted sequence of thresholds."""

    def __init__(self, values):
        self.values = list(values)
        self.index = 0

    def threshold(self):
        value = self.values[min(self.index, len(self.values) - 1)]
        self.index += 1
        return value


def test_delegates_to_inner():
    adaptive = AdaptiveMitigation(Graphene, StaticThresholdPolicy(64.0))
    triggered = 0
    for i in range(40):
        if not adaptive.on_activate(0, 7, float(i)).is_noop:
            triggered += 1
    assert triggered == 1  # same behavior as a bare Graphene(64)


def test_reconfigures_on_threshold_change():
    policy = _ScriptedPolicy([1024.0, 1024.0, 64.0])
    adaptive = AdaptiveMitigation(Graphene, policy, check_every=10)
    stalls = 0
    for i in range(35):
        action = adaptive.on_activate(0, 7, float(i))
        if action.rank_block_ns >= RECONFIGURE_STALL_NS:
            stalls += 1
    assert adaptive.reconfigurations >= 1
    assert stalls == adaptive.reconfigurations
    assert adaptive.threshold == 64.0


def test_hysteresis_suppresses_small_changes():
    policy = _ScriptedPolicy([1000.0, 980.0, 1020.0, 990.0])
    adaptive = AdaptiveMitigation(Graphene, policy, check_every=5,
                                  hysteresis=0.05)
    for i in range(40):
        adaptive.on_activate(0, 7, float(i))
    assert adaptive.reconfigurations == 0


def test_counters_track_inner():
    adaptive = AdaptiveMitigation(Graphene, StaticThresholdPolicy(64.0))
    bare = Graphene(64.0)
    for i in range(40):
        adaptive.on_activate(0, 7, float(i))
        bare.on_activate(0, 7, float(i))
    assert adaptive.preventive_refreshes == bare.preventive_refreshes
    assert adaptive.preventive_refreshes > 0


def test_validation():
    with pytest.raises(ConfigurationError):
        AdaptiveMitigation(Graphene, StaticThresholdPolicy(64.0), check_every=0)
    with pytest.raises(ConfigurationError):
        AdaptiveMitigation(
            Graphene, StaticThresholdPolicy(64.0), hysteresis=1.0
        )
