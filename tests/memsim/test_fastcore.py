"""Loop equivalence: MemorySystem.run is bit-identical to the per-request
oracle ``reference_memsim_run``.

The contract under test (see :mod:`repro.memsim.system`): same requests
per core, same latency sums (same floats), same hit/miss split, same
preventive-refresh and rank-block counts — for every mitigation and for
custom address sources.
"""

import pytest

from repro.errors import SimulationError
from repro.memsim import CoreStream, MemorySystem, SystemConfig, standard_mixes
from repro.memsim.tracefile import TracePlayer, TraceRecord
from repro.mitigations import (
    AdaptiveMitigation,
    BlockHammer,
    Graphene,
    apply_guardband,
    build_mitigation,
)
from repro.profiling.policy import StaticThresholdPolicy
from tests.differential.harness import (
    memsim_fingerprint as fingerprint,
    reference_memsim_run,
)

MIXES = standard_mixes(2)
CONFIG = SystemConfig(window_ns=20_000.0)


@pytest.fixture(autouse=True)
def small_stream_chunks(monkeypatch):
    # Every run crosses many stream-chunk boundaries, private and shared
    # (100 does not divide the generators' 1024-address batches).
    monkeypatch.setattr("repro.memsim.system.STREAM_CHUNK", 100)


def assert_equivalent(mix, config, build):
    reference = reference_memsim_run(MemorySystem(mix, config, build()))
    fast = MemorySystem(mix, config, build()).run()
    assert fingerprint(fast) == fingerprint(reference)
    return reference


@pytest.mark.parametrize("mix", MIXES, ids=lambda m: m.name)
@pytest.mark.parametrize("name", ["Graphene", "PRAC", "PARA", "MINT"])
@pytest.mark.parametrize("rdt", [1024, 128])
def test_fig14_grid_equivalence(mix, name, rdt):
    reference = assert_equivalent(
        mix, CONFIG, lambda: build_mitigation(name, rdt)
    )
    if rdt == 128 and name in ("PARA", "MINT"):
        # The frequent-action mechanisms must actually exercise preventive
        # logic at this window (trackers only cross at longer horizons;
        # test_window_reset_equivalence covers their action paths).
        assert reference.preventive_refreshes + reference.rank_blocks > 0


@pytest.mark.parametrize("mix", MIXES, ids=lambda m: m.name)
def test_baseline_equivalence(mix):
    assert_equivalent(mix, CONFIG, lambda: None)


@pytest.mark.parametrize("name", ["Graphene", "PRAC", "MINT"])
def test_guardband_threshold_equivalence(name):
    # Non-integer thresholds (margin-adjusted RDTs) hit the same fast paths.
    threshold = apply_guardband(128, 0.10)  # 115.2
    assert_equivalent(MIXES[0], CONFIG, lambda: build_mitigation(name, threshold))


@pytest.mark.parametrize("rdt", [1024, 128])
def test_blockhammer_equivalence(rdt):
    assert_equivalent(MIXES[0], CONFIG, lambda: BlockHammer(rdt))


def test_blockhammer_throttle_counter_writeback():
    reference = MemorySystem(MIXES[0], CONFIG, BlockHammer(48))
    reference_memsim_run(reference)
    assert reference.mitigation.throttled_activations > 0
    fast = MemorySystem(MIXES[0], CONFIG, BlockHammer(48))
    fast.run()
    assert (
        fast.mitigation.throttled_activations
        == reference.mitigation.throttled_activations
    )


def test_adaptive_mitigation_generic_path():
    # AdaptiveMitigation has no array batcher; it runs through the exact
    # per-activation generic path and must still match.
    def build():
        return AdaptiveMitigation(
            Graphene, StaticThresholdPolicy(256.0), check_every=512
        )

    assert_equivalent(MIXES[0], CONFIG, build)


@pytest.mark.parametrize(
    "name", ["Graphene", "MINT", "PRAC", "PARA", "BlockHammer"]
)
def test_window_reset_equivalence(name):
    # A tREFW small enough to fire several tracking-window resets per run,
    # and a threshold low enough that the array-backed tracker tables
    # actually cross and issue preventive actions between resets.
    # BlockHammer acts by throttling, which it counts on its own.
    config = SystemConfig(window_ns=20_000.0, t_refw_ns=4_000.0)
    built = []

    def build():
        built.append(build_mitigation(name, 12))
        return built[-1]

    reference = assert_equivalent(MIXES[0], config, build)
    throttled = getattr(built[0], "throttled_activations", 0)
    assert reference.preventive_refreshes + reference.rank_blocks + throttled > 0


def test_trace_replay_equivalence():
    records = []
    for i in range(200):
        for core in range(4):
            records.append(
                TraceRecord(core=core, bank=(i * 7 + core) % 8, row=(i * 3) % 40)
            )
    mix = MIXES[0]

    def players():
        return [TracePlayer(records, core) for core in range(4)]

    reference = reference_memsim_run(MemorySystem(
        mix, CONFIG, Graphene(8), address_sources=players()
    ))
    fast = MemorySystem(
        mix, CONFIG, Graphene(8), address_sources=players()
    ).run()
    assert fingerprint(fast) == fingerprint(reference)
    assert reference.preventive_refreshes > 0


def test_shared_streams_match_fresh_runs():
    # One materialized stream set serves many runs of a mix (the sweep's
    # sharing pattern) without perturbing any of them.
    mix = MIXES[0]
    streams = [
        CoreStream(source)
        for source in MemorySystem(mix, CONFIG)._generators
    ]
    for build in (lambda: None, lambda: Graphene(128), lambda: build_mitigation("MINT", 96)):
        shared = MemorySystem(mix, CONFIG, build()).run(streams)
        fresh = reference_memsim_run(MemorySystem(mix, CONFIG, build()))
        assert fingerprint(shared) == fingerprint(fresh)


def test_run_fast_validates_stream_count():
    system = MemorySystem(MIXES[0], CONFIG)
    streams = [CoreStream(source) for source in system._generators]
    with pytest.raises(SimulationError):
        system.run(streams[:3])
