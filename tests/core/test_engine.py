"""The campaign cache's correctness contract, and batched probing.

The cache only ever returns exact round-trips of what was stored, and the
batched probe and selection equal their per-row forms. These tests assert
both directly — array equality, not statistical closeness.
"""

import json
import pickle

import numpy as np
import pytest

from repro.chips import build_module
from repro.core import CHECKERED0, ROWSTRIPE0, FastRdtMeter, TestConfig
from repro.core.adaptive import AdaptiveScheduler
from repro.core.campaign import Campaign, CampaignResult, select_vulnerable_rows
from repro.core.engine import CampaignCache
from repro.core.patterns import ALL_PATTERNS, DataPattern
from repro.core.store import FORMAT_VERSION
from repro.errors import ConfigurationError, MeasurementError
from repro.store import KIND_CAMPAIGN
from tests.differential.harness import reference_row, reference_selection

MODULE_ID = "M1"
SEED = 1234
N_MEASUREMENTS = 60
ROWS = [3, 17, 40, 77, 105, 128]


def _module(seed=SEED):
    module = build_module(MODULE_ID, seed=seed)
    module.disable_interference_sources()
    return module


def _configs(module):
    return [
        TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS),
        TestConfig(ROWSTRIPE0, t_agg_on_ns=module.timing.tRAS,
                   temperature_c=80.0),
    ]


@pytest.fixture(scope="module")
def serial_result():
    module = _module()
    campaign = Campaign(module, _configs(module), n_measurements=N_MEASUREMENTS)
    return campaign.run(ROWS)


def _campaign_key(cache, seed=SEED, adaptive=None):
    """The cache key of the campaign over ``ROWS``."""
    recipe = dict(
        seed=seed, module_id=MODULE_ID, configs=_configs(_module(seed)),
        n_measurements=N_MEASUREMENTS, pairs=[(0, row) for row in ROWS],
        protocol="DDR4",
    )
    if adaptive is not None:
        return cache.key(**recipe, schedule="adaptive", adaptive=adaptive)
    return cache.key(**recipe)


def _stored_entries(cache) -> int:
    return cache.result_store.stats()["entries"]


def _cached_campaign(cache, seed=SEED, adaptive=None):
    """The campaign over ``ROWS`` through ``cache``: a hit returns the
    stored result; a miss runs it (the adaptive schedule when
    ``adaptive`` is given) and stores it."""
    module = _module(seed)
    configs = _configs(module)
    key = _campaign_key(cache, seed, adaptive)
    if adaptive is not None:
        result = cache.load_adaptive(key)
        if result is None:
            result = AdaptiveScheduler(module, configs, adaptive).run(ROWS)
            cache.store_adaptive(key, result)
        return result
    result = cache.load(key)
    if result is None:
        campaign = Campaign(module, configs, n_measurements=N_MEASUREMENTS)
        result = campaign.run(ROWS)
        cache.store(key, result)
    return result


def assert_identical(left: CampaignResult, right: CampaignResult):
    """Bit-exact equality including observation order."""
    assert left.module_id == right.module_id
    assert len(left) == len(right)
    for a, b in zip(left.observations, right.observations):
        assert (a.bank, a.row, a.config) == (b.bank, b.row, b.config)
        np.testing.assert_array_equal(a.series.values, b.series.values)
        assert a.series.grid_step == b.series.grid_step


def test_table2_patterns_unpickle_to_canonical_instances():
    """Figures filter observations with ``config.pattern is p``; a pickled
    copy of a result must keep the canonical Table 2 pattern objects."""
    assert pickle.loads(pickle.dumps(CHECKERED0)) is CHECKERED0
    for pattern in ALL_PATTERNS:
        assert pickle.loads(pickle.dumps(pattern)) is pattern
    custom = DataPattern("custom", 0x3C)
    assert pickle.loads(pickle.dumps(custom)) == custom


def test_engine_rejects_empty_rows():
    module = _module()
    with pytest.raises(MeasurementError):
        Campaign(module, _configs(module), n_measurements=N_MEASUREMENTS).run([])


# ----------------------------------------------------------------------
# Batched probing
# ----------------------------------------------------------------------


#: (module, pattern, keep the module's cell-polarity lookup)
PROBE_CASES = {
    # Non-identity logical-to-physical row mappings.
    "S3": ("S3", CHECKERED0, True),
    "Chip0": ("Chip0", CHECKERED0, True),
    # Row-uniform polarity: M0's 512-row true/anti blocks.
    "M0-row-blocks": ("M0", CHECKERED0, True),
    # Byte-wise mixed polarity within every row.
    "M1-mixed": ("M1", CHECKERED0, True),
    # A pattern outside Table 2 canonicalizes to "other".
    "M1-other-pattern": ("M1", DataPattern("custom", 0x3C), True),
    # No polarity lookup at all: every cell is a true cell.
    "M1-no-lookup": ("M1", ROWSTRIPE0, False),
}


@pytest.mark.parametrize("case", list(PROBE_CASES), ids=list(PROBE_CASES))
def test_batched_probe_equals_per_row_guesses(case):
    """guess_rdt_batch must reproduce each row's reference guess stream
    bit-for-bit across row mappings, cell-polarity layouts, pattern
    canonicalization, and models without a polarity lookup."""
    module_id, pattern, keep_lookup = PROBE_CASES[case]
    module = build_module(module_id, seed=7)
    module.disable_interference_sources()
    if not keep_lookup:
        module.fault_model.cell_layout = None
    meter = FastRdtMeter(module, bank=0)
    config = TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)
    rows = [0, 5, 9, 13, 64, 200, 600, 1030]
    batch = meter.guess_rdt_batch(rows, config, repeats=10)
    condition = config.condition(module.timing)
    singles = [
        reference_row(module.fault_model, 0, module.bank(0).mapping.to_physical(row))
        .latent_series(condition, 10, stream="guess").mean()
        for row in rows
    ]
    np.testing.assert_array_equal(batch, singles)


@pytest.mark.parametrize("repeats", [0, -3])
def test_batched_probe_rejects_empty_guess(repeats):
    module = build_module(MODULE_ID, seed=SEED)
    meter = FastRdtMeter(module, bank=0)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    with pytest.raises(ConfigurationError):
        meter.guess_rdt_batch([1, 2], config, repeats=repeats)


def test_batched_selection_equals_reference_selection():
    module = build_module(MODULE_ID, seed=SEED)
    module.disable_interference_sources()
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    fast = select_vulnerable_rows(module, config, block_rows=48, per_block=6)
    reference = reference_selection(module, config, block_rows=48, per_block=6)
    assert fast == reference


def test_geometric_mirror_self_check_passes():
    """The device fast path relies on an exact mirror of numpy's geometric
    sampler; the self-check must accept this numpy build (otherwise the
    fast path silently degrades to direct ``rng.geometric`` calls)."""
    from repro.dram import faults

    assert faults._geometric_search_mirror_ok()
    assert faults.geometric_mirror_ok()


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------


def test_cache_round_trip(tmp_path, serial_result):
    cache = CampaignCache(tmp_path / "cache")
    first = _cached_campaign(cache)
    _, status = cache.result_store.fetch(_campaign_key(cache), KIND_CAMPAIGN)
    assert status == "hit"
    reloaded = _cached_campaign(cache)
    assert_identical(reloaded, first)
    assert_identical(reloaded, serial_result)


def test_cache_misses_on_different_seed(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    first = _cached_campaign(cache, seed=SEED)
    other = _cached_campaign(cache, seed=SEED + 1)
    assert _stored_entries(cache) == 2
    with pytest.raises(AssertionError):
        assert_identical(first, other)


def test_cache_key_separates_every_recipe_axis():
    from repro.core.adaptive import AdaptiveConfig

    cache_key_kwargs = dict(
        seed=1, module_id="M1",
        configs=[TestConfig(CHECKERED0, t_agg_on_ns=35.0)],
        n_measurements=100, pairs=[(0, 1)],
    )
    cache = CampaignCache.resolve(".")  # no writes: key() is pure
    base = cache.key(**cache_key_kwargs)
    for change in (
        dict(seed=2),
        dict(module_id="M4"),
        dict(configs=[TestConfig(ROWSTRIPE0, t_agg_on_ns=35.0)]),
        dict(n_measurements=101),
        dict(pairs=[(0, 2)]),
        dict(extra={"driver": "x"}),
        dict(schedule="adaptive"),
        dict(schedule="adaptive", adaptive=AdaptiveConfig()),
        dict(protocol="DDR4"),
        dict(protocol="HBM2"),
    ):
        assert cache.key(**{**cache_key_kwargs, **change}) != base


def test_cache_key_separates_adaptive_parameters():
    """Regression for the aliasing bug class: every adaptive knob —
    budget, confidence, precision, grid-refinement ceiling — must change
    the key, so adaptive runs with different stopping behavior (and
    adaptive vs exhaustive runs) can never share a cache entry."""
    from repro.core.adaptive import AdaptiveConfig

    cache = CampaignCache.resolve(".")  # no writes: key() is pure
    recipe = dict(
        seed=1, module_id="M1",
        configs=[TestConfig(CHECKERED0, t_agg_on_ns=35.0)],
        n_measurements=100, pairs=[(0, 1)],
        schedule="adaptive",
    )
    base = cache.key(**recipe, adaptive=AdaptiveConfig())
    variants = [
        AdaptiveConfig(budget=1000),
        AdaptiveConfig(confidence=0.95),
        AdaptiveConfig(rel_precision=0.1),
        AdaptiveConfig(abs_precision=50.0),
        AdaptiveConfig(min_measurements=4),
        AdaptiveConfig(max_measurements=500),
    ]
    keys = {base}
    for adaptive in variants:
        keys.add(cache.key(**recipe, adaptive=adaptive))
    assert len(keys) == len(variants) + 1

    with pytest.raises(ConfigurationError):
        cache.key(**{**recipe, "schedule": "exhaustive"},
                  adaptive=AdaptiveConfig())


def test_adaptive_and_exhaustive_never_alias_on_disk(tmp_path):
    """End-to-end: the same rows/configs/seed through both schedules must
    produce two distinct cache entries, and each schedule must reload its
    own result exactly."""
    from repro.core.adaptive import AdaptiveConfig

    cache = CampaignCache(tmp_path / "cache")
    adaptive_config = AdaptiveConfig(max_measurements=N_MEASUREMENTS)
    exhaustive = _cached_campaign(cache)
    adaptive = _cached_campaign(cache, adaptive=adaptive_config)
    assert _stored_entries(cache) == 2

    reloaded_exhaustive = _cached_campaign(cache)
    assert_identical(reloaded_exhaustive, exhaustive)
    reloaded_adaptive = _cached_campaign(cache, adaptive=adaptive_config)
    assert [e.to_dict() for e in reloaded_adaptive.estimates] == (
        [e.to_dict() for e in adaptive.estimates]
    )


def test_load_adaptive_rejects_exhaustive_payload(tmp_path):
    """A campaign payload under an adaptive key is corrupt, not a hit."""
    from repro import obs

    cache = CampaignCache(tmp_path / "cache")
    first = _cached_campaign(cache)
    assert first is not None
    key = _campaign_key(cache)
    with obs.tracing() as recorder:
        assert cache.load_adaptive(key) is None
    assert recorder.counters.get("cache.corrupt") == 1
    assert _stored_entries(cache) == 0  # evicted


def _inject_raw(cache, key, blob, kind="campaign"):
    """Plant a raw payload blob under ``key`` with a *matching* checksum,
    bypassing the store's JSON encoding — simulates a tampered or
    version-skewed entry that passes integrity checks but fails to
    decode/validate."""
    import sqlite3

    from repro.store.db import payload_checksum

    store = cache.result_store
    store.put(key, kind, {})
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "UPDATE results SET payload = ?, checksum = ? WHERE key = ?",
            (blob, payload_checksum(blob), key),
        )


@pytest.mark.parametrize("blob", [
    "{not json",                         # truncated writer
    "[]",                                # wrong payload root
    '{"format_version": 999}',           # unsupported version
    # right version, missing body
    json.dumps({"format_version": FORMAT_VERSION}),
], ids=["truncated", "wrong-root", "wrong-version", "missing-body"])
def test_corrupt_cache_entry_is_counted_evicted_and_missed(tmp_path, blob):
    from repro import obs

    cache = CampaignCache(tmp_path / "cache")
    key = "deadbeef"
    _inject_raw(cache, key, blob.encode("utf-8"))
    with obs.tracing() as recorder:
        assert cache.load(key) is None
    assert recorder.counters.get("cache.corrupt") == 1
    assert "cache.hit" not in recorder.counters
    assert _stored_entries(cache) == 0  # evicted from the store


def test_corrupt_entry_recomputes_to_identical_result(tmp_path, serial_result):
    from repro import obs

    import sqlite3

    cache = CampaignCache(tmp_path / "cache")
    _cached_campaign(cache)
    key = _campaign_key(cache)
    with sqlite3.connect(cache.result_store.path) as conn:
        (blob,) = conn.execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()
        conn.execute(  # torn write: checksum no longer matches
            "UPDATE results SET payload = ? WHERE key = ?",
            (blob[: len(blob) // 2], key),
        )

    with obs.tracing() as recorder:
        recomputed = _cached_campaign(cache)
    assert_identical(recomputed, serial_result)
    assert recorder.counters.get("cache.corrupt") == 1
    assert recorder.counters.get("cache.store") == 1  # re-stored after evict

    with obs.tracing() as recorder:
        assert_identical(_cached_campaign(cache), serial_result)
    assert recorder.counters.get("cache.hit") == 1


def test_unreadable_store_is_a_plain_miss(tmp_path, monkeypatch):
    import sqlite3

    from repro import obs

    monkeypatch.setattr("repro.store.db.BUSY_TIMEOUT_S", 0.05)
    cache = CampaignCache(tmp_path / "cache")
    cache.result_store.put("deadbeef", "campaign", {"a": 1})
    cache.result_store.close()
    # Another connection holds the file locked past the busy timeout:
    # the read fails, which must degrade to a plain miss — not a
    # corruption event, and nothing to evict.
    holder = sqlite3.connect(cache.result_store.path, isolation_level=None)
    holder.execute("PRAGMA locking_mode=EXCLUSIVE")
    holder.execute("BEGIN EXCLUSIVE")
    try:
        with obs.tracing() as recorder:
            assert cache.load("deadbeef") is None
    finally:
        holder.close()
    assert recorder.counters.get("cache.miss") == 1
    assert "cache.corrupt" not in recorder.counters
    assert _stored_entries(cache) == 1  # left alone: nothing to repair


def test_cache_resolve_env(tmp_path, monkeypatch):
    # VRD_STORE_PATH names the database file directly; empty disables.
    monkeypatch.setenv("VRD_STORE_PATH", str(tmp_path / "env" / "db.sqlite"))
    cache = CampaignCache.resolve()
    assert cache is not None
    assert cache.result_store.path == tmp_path / "env" / "db.sqlite"
    assert cache.root == tmp_path / "env"
    monkeypatch.setenv("VRD_STORE_PATH", "")
    assert CampaignCache.resolve() is None
    # An explicit directory outranks the environment.
    explicit = CampaignCache.resolve(tmp_path / "explicit")
    assert explicit is not None and explicit.root == tmp_path / "explicit"
