"""Tests for the dynamically reconfigured mitigation wrapper, driven one
exact ``step`` per activation."""

import pytest

from repro.errors import ConfigurationError
from repro.mitigations import Graphene, Mint, Prac
from repro.mitigations.adaptive import AdaptiveMitigation, RECONFIGURE_STALL_NS
from repro.profiling import StaticThresholdPolicy
from tests.mitigations.test_fast import drive_and_compare, hot_sequence


class _ScriptedPolicy:
    """Policy returning a scripted sequence of thresholds."""

    def __init__(self, values):
        self.values = list(values)
        self.index = 0

    def threshold(self):
        value = self.values[min(self.index, len(self.values) - 1)]
        self.index += 1
        return value


def started(policy, check_every=None):
    adaptive = AdaptiveMitigation(Graphene, policy)
    if check_every is not None:
        adaptive.check_every = check_every
    adaptive.start(4, 64)
    return adaptive


def test_delegates_to_inner():
    adaptive = started(StaticThresholdPolicy(64.0))
    triggered = 0
    for _ in range(40):
        if adaptive.step(0, 7) is not None:
            triggered += 1
    assert triggered == 1  # same behavior as a bare Graphene(64)


def test_reconfigures_on_threshold_change():
    policy = _ScriptedPolicy([1024.0, 1024.0, 64.0])
    adaptive = started(policy, check_every=10)
    stalls = 0
    for _ in range(35):
        action = adaptive.step(0, 7)
        if action is not None and action[1] >= RECONFIGURE_STALL_NS:
            stalls += 1
    assert adaptive.reconfigurations >= 1
    assert stalls == adaptive.reconfigurations
    assert adaptive.threshold == 64.0


def test_hysteresis_suppresses_small_changes():
    policy = _ScriptedPolicy([1000.0, 980.0, 1020.0, 990.0])
    adaptive = started(policy, check_every=5)
    for _ in range(40):
        adaptive.step(0, 7)
    assert adaptive.reconfigurations == 0


def test_counters_track_inner():
    adaptive = started(StaticThresholdPolicy(64.0))
    bare = Graphene(64.0)
    bare.start(4, 64)
    for _ in range(40):
        adaptive.step(0, 7)
        bare.step(0, 7)
    assert adaptive.preventive_refreshes == bare.preventive_refreshes
    assert adaptive.preventive_refreshes > 0


def test_validation():
    # A policy threshold below 1 is rejected at construction and when a
    # policy check moves the threshold there.
    with pytest.raises(ConfigurationError):
        AdaptiveMitigation(Graphene, _ScriptedPolicy([0.5]))
    adaptive = started(_ScriptedPolicy([64.0, 0.5]), check_every=1)
    with pytest.raises(ConfigurationError):
        adaptive.step(0, 7)


def test_counters_add_up_across_rebuilds():
    # Graphene(64) refreshes row 7's two neighbors at activations 32 and
    # 64; the check at activation 80 rebuilds it as Graphene(32), which
    # refreshes them again 16 activations later.
    adaptive = started(_ScriptedPolicy([64.0, 64.0, 32.0]), check_every=40)
    actions = [adaptive.step(0, 7) for _ in range(100)]
    refreshing = [a for a in actions if a is not None and a[0]]
    assert len(refreshing) == 3
    assert adaptive.reconfigurations == 1
    assert adaptive.preventive_refreshes == 6
    assert adaptive.rank_blocks == 1  # the reconfiguration's stall


@pytest.mark.parametrize("inner", [Graphene, Prac, Mint])
def test_rebuilds_match_the_reference(inner):
    # Reconfigurations mid-sequence, driven through the epoch protocol:
    # the rebuilt mechanism, the stall on the check's activation and the
    # counts carried across rebuilds all match the reference.
    adaptive = AdaptiveMitigation(
        inner, _ScriptedPolicy([256.0, 48.0, 48.0, 24.0, 512.0, 40.0])
    )
    adaptive.check_every = 300
    drive_and_compare(adaptive, hot_sequence(2000), windows_at=(1000,))
    assert adaptive.reconfigurations == 4
