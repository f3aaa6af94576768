"""Tests for the BlockHammer-style throttling mitigation, driven one exact
``step`` per activation."""

from repro.memsim import MemorySystem, SystemConfig, standard_mixes
from repro.memsim.metrics import normalized_weighted_speedup
from repro.mitigations import BlockHammer, build_mitigation
from repro.mitigations.blockhammer import THROTTLE_DELAY_NS


def started(threshold):
    blockhammer = BlockHammer(threshold)
    blockhammer.start(4, 64)
    return blockhammer


def test_within_quota_untouched():
    bh = started(1000)
    actions = [bh.step(0, 7) for _ in range(bh.quota)]
    assert all(a is None for a in actions)
    assert bh.throttled_activations == 0


def test_over_quota_throttled_on_own_bank():
    bh = started(100)
    for _ in range(bh.quota + 10):
        action = bh.step(3, 7)
    # No refresh, no rank stall: a delay on the offending bank alone.
    assert action == ([], 0.0, ((3, THROTTLE_DELAY_NS),))
    assert bh.throttled_activations == 10


def test_count_min_never_underestimates():
    """The filter may overestimate (hash collisions) but a row activated k
    times always has estimate >= k."""
    bh = BlockHammer(10_000)
    bh.filter_size = 64
    bh.start(4, 64)
    for i in range(200):
        bh.step(0, i % 7)
    for row in range(7):
        exact = len([i for i in range(200) if i % 7 == row])
        estimate = min(bh._filters[0][index] for index in bh._indices(row))
        assert estimate >= exact


def test_window_reset_clears_filters():
    bh = started(100)
    for _ in range(bh.quota + 5):
        bh.step(0, 7)
    bh.on_refresh_window()
    assert bh.step(0, 7) is None


def test_banks_tracked_independently():
    bh = started(100)
    for _ in range(bh.quota):
        bh.step(0, 7)
    assert bh.step(1, 7) is None


def test_build_by_name():
    assert isinstance(build_mitigation("blockhammer", 512), BlockHammer)


def test_throttling_slows_hot_workloads():
    mix = standard_mixes(1)[0]
    config = SystemConfig(window_ns=40_000.0)
    baseline = MemorySystem(mix, config).run()
    throttled = MemorySystem(mix, config, BlockHammer(64)).run()
    speedup = normalized_weighted_speedup(throttled, baseline)
    assert speedup < 1.0
