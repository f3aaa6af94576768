"""Tests for the memory-system simulation."""

import pytest

from repro.errors import SimulationError
from repro.memsim import MemorySystem, SystemConfig, standard_mixes
from repro.memsim.metrics import geometric_mean, normalized_weighted_speedup
from repro.mitigations import Mint, Para, build_mitigation

MIX = standard_mixes(1)[0]
FAST = SystemConfig(window_ns=20_000.0)


def test_baseline_deterministic():
    a = MemorySystem(MIX, FAST).run()
    b = MemorySystem(MIX, FAST).run()
    assert a.requests_per_core == b.requests_per_core
    assert sum(a.requests_per_core) > 100


def test_memory_intensity_orders_throughput():
    # Heavier-MPKI cores complete more memory requests per unit time.
    result = MemorySystem(MIX, FAST).run()
    mpkis = [w.mpki for w in MIX.workloads]
    requests = result.requests_per_core
    heaviest = mpkis.index(max(mpkis))
    lightest = mpkis.index(min(mpkis))
    assert requests[heaviest] > requests[lightest]


def test_refresh_costs_some_throughput():
    with_ref = MemorySystem(MIX, SystemConfig(window_ns=50_000.0)).run()
    without = MemorySystem(
        MIX, SystemConfig(window_ns=50_000.0, refresh_enabled=False)
    ).run()
    assert sum(without.requests_per_core) >= sum(with_ref.requests_per_core)


def test_mitigation_slows_system_down():
    baseline = MemorySystem(MIX, FAST).run()
    mitigated = MemorySystem(MIX, FAST, Para(64)).run()
    speedup = normalized_weighted_speedup(mitigated, baseline)
    assert speedup < 1.0
    assert mitigated.preventive_refreshes > 0


def test_lower_threshold_hurts_more():
    baseline = MemorySystem(MIX, FAST).run()
    mild = normalized_weighted_speedup(
        MemorySystem(MIX, FAST, Mint(1024)).run(), baseline
    )
    harsh = normalized_weighted_speedup(
        MemorySystem(MIX, FAST, Mint(64)).run(), baseline
    )
    assert harsh < mild


def test_fig14_ordering_at_low_threshold():
    """The paper's qualitative result: tracker-based mitigations (Graphene,
    PRAC) cost far less than probabilistic/minimalist ones (PARA, MINT) at
    low thresholds."""
    config = SystemConfig(window_ns=40_000.0)
    baseline = MemorySystem(MIX, config).run()
    speedups = {}
    for name in ("Graphene", "PRAC", "PARA", "MINT"):
        run = MemorySystem(MIX, config, build_mitigation(name, 64)).run()
        speedups[name] = normalized_weighted_speedup(run, baseline)
    assert speedups["Graphene"] > speedups["PARA"]
    assert speedups["PRAC"] > speedups["MINT"]
    assert speedups["PARA"] < 0.95
    assert speedups["MINT"] < 0.95


def test_metrics_validation():
    baseline = MemorySystem(MIX, FAST).run()
    other = MemorySystem(standard_mixes(2)[1], FAST).run()
    with pytest.raises(SimulationError):
        normalized_weighted_speedup(other, baseline)
    with pytest.raises(SimulationError):
        geometric_mean([])
    assert geometric_mean([0.5, 2.0]) == pytest.approx(1.0)


def mean_latencies(result):
    return [
        total / count
        for total, count in zip(
            result.total_latency_per_core, result.requests_per_core
        )
    ]


def test_latency_and_hit_rate_metrics():
    result = MemorySystem(MIX, FAST).run()
    latencies = mean_latencies(result)
    assert len(latencies) == 4
    # Memory latency sits between a bare row hit and a few conflicts.
    for latency in latencies:
        assert 10.0 < latency < 500.0
    assert 0 < result.row_hits < sum(result.requests_per_core)
    assert result.row_hits + result.row_misses == sum(result.requests_per_core)


def test_mitigation_raises_latency():
    baseline = MemorySystem(MIX, FAST).run()
    mitigated = MemorySystem(MIX, FAST, Mint(64)).run()
    assert sum(mean_latencies(mitigated)) > sum(mean_latencies(baseline))


def test_config_validation():
    with pytest.raises(SimulationError):
        SystemConfig(window_ns=0.0)
    with pytest.raises(SimulationError):
        SystemConfig(n_banks=0)
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SimulationError):
            SystemConfig(window_ns=value)
        with pytest.raises(SimulationError):
            SystemConfig(t_refw_ns=value)


def test_run_memory_is_bounded_by_the_stream_chunk():
    # A private run keeps only each core's current chunk of addresses, so
    # peak memory does not grow with the window (about 1 MB at 2 ms).
    import tracemalloc

    system = MemorySystem(MIX, SystemConfig(window_ns=2e6), Para(1024))
    tracemalloc.start()
    try:
        system.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
