"""Tests for JSON persistence of series and campaigns."""

import base64
import copy
import json
import math
import sqlite3

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.campaign import Campaign, CampaignResult, RowObservation
from repro.core.config import TestConfig, standard_configs
from repro.core.patterns import ALL_PATTERNS, CHECKERED0
from repro.core.series import RdtSeries
from repro.core import store
from repro.errors import MeasurementError


def make_campaign(module):
    configs = list(
        standard_configs(
            module.timing,
            patterns=ALL_PATTERNS[:2],
            temperatures=(50.0,),
            t_agg_on_values=(module.timing.tRAS,),
        )
    )
    return Campaign(module, configs, n_measurements=100).run([10, 20])


def test_series_roundtrip_with_nans():
    series = RdtSeries(
        np.array([100.0, np.nan, 120.0]),
        module_id="T", bank=1, row=7, config_label="x", grid_step=2.0,
    )
    restored = store.series_from_dict(store.series_to_dict(series))
    assert np.array_equal(restored.values, series.values, equal_nan=True)
    assert restored.module_id == "T"
    assert restored.row == 7
    assert restored.grid_step == 2.0


def test_config_roundtrip():
    config = TestConfig(
        CHECKERED0, t_agg_on_ns=7800.0, temperature_c=65.0,
        wordline_voltage_v=2.2,
    )
    restored = store.config_from_dict(store.config_to_dict(config))
    assert restored == config


def test_config_voltage_defaults_when_absent():
    payload = {
        "pattern": "checkered0", "t_agg_on_ns": 35.0, "temperature_c": 50.0,
    }
    assert store.config_from_dict(payload).wordline_voltage_v == 2.5


def test_campaign_roundtrip_preserves_metrics(module, tmp_path):
    result = make_campaign(module)
    path = tmp_path / "campaign.json"
    store.save_campaign(result, path)
    restored = store.load_campaign(path)
    assert restored.module_id == result.module_id
    assert len(restored) == len(result)
    assert restored.max_cv_per_row() == result.max_cv_per_row()
    original = result.min_rdt_distributions((1,))[1]
    roundtripped = restored.min_rdt_distributions((1,))[1]
    assert np.allclose(original, roundtripped)


def test_version_check(module, tmp_path):
    result = make_campaign(module)
    payload = store.campaign_to_dict(result)
    payload["format_version"] = 999
    with pytest.raises(MeasurementError):
        store.campaign_from_dict(payload)


def test_malformed_inputs(tmp_path):
    with pytest.raises(MeasurementError):
        store.series_from_dict({"values": "nope"})
    with pytest.raises(MeasurementError):
        store.config_from_dict({"pattern": "checkered0"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeasurementError):
        store.load_campaign(bad)


# ----------------------------------------------------------------------
# Format 2: each series' values are one base64 little-endian float64 column
# ----------------------------------------------------------------------

#: IEEE 754 binary64 bit patterns the column must carry unchanged.
SPECIAL_BITS = [
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000000,  # negative quiet NaN
    0x7FF0000000000001,  # signalling NaN
    0x7FF4000000000123,  # NaN with a payload
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
]


def _series(values) -> RdtSeries:
    return RdtSeries(
        values, module_id="T", bank=1, row=7, config_label="x",
        grid_step=2.0,
    )


@settings(max_examples=40, deadline=None)
@given(
    length=st.one_of(st.sampled_from([0, 1, 100_000]), st.integers(0, 64)),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from(SPECIAL_BITS), max_size=16),
)
@example(length=0, seed=0, specials=[])
@example(length=1, seed=0, specials=[0x8000000000000000])
@example(length=100_000, seed=0, specials=SPECIAL_BITS)
def test_values_roundtrip_bit_for_bit(length, seed, specials):
    rng = np.random.default_rng(seed)
    bits = np.frombuffer(rng.bytes(8 * length), dtype="<u8").copy()
    if length:
        bits[rng.integers(0, length, size=len(specials))] = specials
    series = _series(bits.view("<f8"))
    encoded = json.dumps(store.series_to_dict(series), allow_nan=False)
    restored = store.series_from_dict(json.loads(encoded)).values
    assert restored.dtype == np.float64
    assert restored.flags.writeable
    assert restored.tobytes() == series.values.tobytes()


def test_values_are_little_endian_float64_base64():
    payload = store.series_to_dict(_series([1.0, -0.0, math.inf]))
    raw = base64.b64decode(payload["values"], validate=True)
    assert raw == np.array([1.0, -0.0, math.inf], dtype="<f8").tobytes()


MALFORMED_VALUES = [
    "AAAAA*AAAAAA=",  # one float64 plus a non-base64 character
    "AAAAAAAAAAé=",  # a non-ASCII character
    base64.b64encode(bytes(12)).decode(),  # 12 bytes: 1.5 values
    [100.0, None, 120.0],  # the format-1 float list
    None,
]
MALFORMED_IDS = ["non-base64", "non-ascii", "12-bytes", "float-list", "none"]


@pytest.mark.parametrize("values", MALFORMED_VALUES, ids=MALFORMED_IDS)
def test_malformed_values_rejected(values):
    payload = store.series_to_dict(_series([100.0, 120.0]))
    payload["values"] = values
    with pytest.raises(MeasurementError):
        store.series_from_dict(payload)


@pytest.mark.parametrize("values", MALFORMED_VALUES, ids=MALFORMED_IDS)
def test_malformed_values_entry_is_corrupt_and_evicted(tmp_path, values):
    from repro import obs
    from repro.core.engine import CampaignCache
    from repro.store.db import KIND_CAMPAIGN

    result = CampaignResult(module_id="T")
    result.observations.append(RowObservation(
        module_id="T", bank=1, row=7,
        config=TestConfig(CHECKERED0, t_agg_on_ns=35.0, temperature_c=50.0),
        series=_series([100.0, math.nan]),
    ))
    payload = store.campaign_to_dict(result)
    payload["observations"][0]["series"]["values"] = values
    cache = CampaignCache(tmp_path / "cache")
    cache.result_store.put("deadbeef", KIND_CAMPAIGN, payload)
    with obs.tracing() as recorder:
        assert cache.load("deadbeef") is None
    assert recorder.counters.get("cache.corrupt") == 1
    assert "cache.hit" not in recorder.counters
    assert cache.result_store.fetch("deadbeef", KIND_CAMPAIGN) == (None, "miss")


def _as_format_1(payload: dict) -> dict:
    """The same campaign in the format-1 layout: values as a list of
    JSON floats with ``None`` for NaN."""
    old = copy.deepcopy(payload)
    old["format_version"] = 1
    for entry in old["observations"]:
        values = store.series_from_dict(entry["series"]).values
        entry["series"]["values"] = [
            None if math.isnan(value) else value for value in values.tolist()
        ]
    return old


def test_format_1_entry_under_old_recipe_key_is_a_plain_miss(
    tmp_path, monkeypatch
):
    """An entry left by the format-1 code is never looked up: the recipe
    key moved with the payload format, so the campaign recomputes as a
    plain miss, not as a corrupt entry."""
    from repro import obs
    from repro.analysis.figures import module_campaign
    from repro.core import engine
    from repro.store.db import KIND_CAMPAIGN

    recipe = dict(
        rows_per_block=1, n_measurements=30, patterns=ALL_PATTERNS[:1],
        select_block_rows=64,
    )
    cache = engine.CampaignCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "RECIPE_FORMAT", 2)  # the format-1 code's key
        module_campaign("M1", cache=cache, **recipe)
    with sqlite3.connect(cache.result_store.path) as conn:
        [(old_key,)] = conn.execute("SELECT key FROM results").fetchall()
    payload, _ = cache.result_store.fetch(old_key, KIND_CAMPAIGN)
    cache.result_store.put(old_key, KIND_CAMPAIGN, _as_format_1(payload))

    with obs.tracing() as recorder:
        cached = module_campaign("M1", cache=cache, **recipe)
    assert recorder.counters.get("cache.miss") == 1
    assert "cache.corrupt" not in recorder.counters
    # Never looked up, so never evicted.
    assert cache.result_store.fetch(old_key, KIND_CAMPAIGN)[1] == "hit"
    uncached = module_campaign("M1", **recipe)
    assert store.campaign_to_dict(cached) == store.campaign_to_dict(uncached)
