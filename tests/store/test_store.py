"""The sqlite ResultStore's core contract.

Content addressing, kind discrimination, checksum verification, lazy
open, resolution precedence, batched writes, age-based pruning, and the
corrupt-entry detect/evict/recompute behavior.
"""

import json
import sqlite3
import time

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.store import (
    DEFAULT_STORE_FILENAME,
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    KIND_SWEEP,
    ResultStore,
    resolve_store_path,
)
from repro.store.db import encode_payload, payload_checksum


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / DEFAULT_STORE_FILENAME)


def test_lazy_open_touches_nothing(tmp_path):
    store = ResultStore(tmp_path / "sub" / DEFAULT_STORE_FILENAME)
    assert not (tmp_path / "sub").exists()
    # Reads against a nonexistent database are misses, not file creation.
    assert store.get("k", KIND_CAMPAIGN) is None
    assert store.has("k") is False
    assert store.keys() == []
    assert store.entry_count() == 0
    assert store.stats()["entries"] == 0
    assert not (tmp_path / "sub").exists()

    # JSON files sitting next to the database path are not store entries:
    # a campaign ``<key>.json`` and a ``fig14-<key>.json`` sweep file are
    # plain misses, read without creating the database.
    root = tmp_path / "cache"
    root.mkdir()
    (root / "k.json").write_text(
        json.dumps({"format_version": 2, "observations": []})
    )
    (root / "fig14-k.json").write_text(json.dumps({"kind": "fig14-sweep"}))
    store = ResultStore(root / DEFAULT_STORE_FILENAME)
    assert store.get("k", KIND_CAMPAIGN) is None
    assert store.fetch("k", KIND_SWEEP) == (None, "miss")
    assert not store.path.exists()
    store.put("other", KIND_CAMPAIGN, {"x": 1})
    assert store.keys() == ["other"]


def test_put_fetch_roundtrip(store):
    payload = {"a": 1, "nested": {"x": [1, 2, 3]}}
    store.put("k1", KIND_CAMPAIGN, payload)
    fetched, status = store.fetch("k1", KIND_CAMPAIGN)
    assert status == "hit"
    assert fetched == payload


def test_wrong_kind_is_corrupt_and_evicts(store):
    store.put("k1", KIND_CAMPAIGN, {"a": 1})
    with obs.tracing() as recorder:
        payload, status = store.fetch("k1", KIND_SWEEP)
    assert payload is None and status == "corrupt"
    assert recorder.counters.get("store.corrupt") == 1
    assert not store.has("k1")  # evicted: the slot can recompute cleanly


def test_absent_key_is_a_plain_miss(store):
    store.put("other", KIND_CAMPAIGN, {})
    with obs.tracing() as recorder:
        payload, status = store.fetch("nope", KIND_CAMPAIGN)
    assert payload is None and status == "miss"
    assert recorder.counters.get("store.miss") == 1
    assert "store.corrupt" not in recorder.counters


def test_checksum_mismatch_is_corrupt(store):
    store.put("k1", KIND_CAMPAIGN, {"a": 1})
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "UPDATE results SET payload = ? WHERE key = ?",
            (b'{"a": 2}', "k1"),
        )
    with obs.tracing() as recorder:
        payload, status = store.fetch("k1", KIND_CAMPAIGN)
    assert payload is None and status == "corrupt"
    assert recorder.counters.get("store.corrupt") == 1
    assert not store.has("k1")


def test_undecodable_payload_with_valid_checksum_is_corrupt(store):
    blob = b"{not json"
    store.put("seed", KIND_CAMPAIGN, {})  # create the schema
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "INSERT OR REPLACE INTO results "
            "(key, kind, checksum, payload, nbytes, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            ("k1", KIND_CAMPAIGN, payload_checksum(blob), blob, len(blob),
             time.time()),
        )
    payload, status = store.fetch("k1", KIND_CAMPAIGN)
    assert payload is None and status == "corrupt"
    assert not store.has("k1")


def test_malformed_database_resets_and_recomputes(store):
    store.put("k1", KIND_CAMPAIGN, {"a": 1})
    store.close()
    # Overwrite the database header: every subsequent read hits
    # "file is not a database".
    store.path.write_bytes(b"garbage" * 64)
    for sidecar in ("-wal", "-shm"):
        try:
            (store.path.parent / (store.path.name + sidecar)).unlink()
        except OSError:
            pass
    with obs.tracing() as recorder:
        payload, status = store.fetch("k1", KIND_CAMPAIGN)
    assert payload is None and status == "corrupt"
    assert recorder.counters.get("store.corrupt") == 1
    # The reset leaves a working (empty) store behind.
    store.put("k2", KIND_CAMPAIGN, {"b": 2})
    assert store.get("k2", KIND_CAMPAIGN) == {"b": 2}
    assert store.get("k1", KIND_CAMPAIGN) is None


def test_unopenable_database_path_is_a_miss(tmp_path):
    path = tmp_path / DEFAULT_STORE_FILENAME
    path.mkdir()  # sqlite cannot open a directory
    store = ResultStore(path)
    payload, status = store.fetch("k", KIND_CAMPAIGN)
    assert payload is None and status == "miss"


def test_put_many_is_transactional_and_counted(store):
    entries = [
        (f"k{i}", KIND_CAMPAIGN if i % 2 else KIND_SWEEP, {"i": i})
        for i in range(10)
    ]
    with obs.tracing() as recorder:
        written = store.put_many(entries)
    assert written == 10
    assert recorder.counters.get("store.put") == 10
    assert store.entry_count() == 10
    assert store.entry_count(KIND_CAMPAIGN) == 5
    assert store.entry_count(KIND_SWEEP) == 5


def test_put_many_rejects_unknown_kind(store):
    with pytest.raises(ConfigurationError):
        store.put_many([("k", "bogus", {})])


@pytest.mark.parametrize(
    "older_than_s", [-1.0, float("nan"), float("inf"), float("-inf")]
)
def test_prune_rejects_negative_or_non_finite_age(store, older_than_s):
    # A negative age would put the cutoff in the future and select every
    # entry; NaN would silently select none.
    store.put("c", KIND_CAMPAIGN, {})
    store.put("s", KIND_SWEEP, {})
    with pytest.raises(ConfigurationError):
        store.prune(older_than_s=older_than_s)
    with pytest.raises(ConfigurationError):
        store.prune(kind=KIND_CAMPAIGN, older_than_s=older_than_s)
    assert store.keys() == ["c", "s"]
    assert store.prune(older_than_s=0.0) == 2


def test_keys_filter_by_kind(store):
    store.put("c", KIND_CAMPAIGN, {})
    store.put("s", KIND_SWEEP, {})
    assert store.keys() == ["c", "s"]
    assert store.keys(KIND_SWEEP) == ["s"]


def test_stats_shape(store):
    store.put("c", KIND_CAMPAIGN, {"x": 1})
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["per_kind"] == {KIND_CAMPAIGN: 1}
    assert stats["payload_bytes"] == len(encode_payload({"x": 1}))
    assert stats["path"] == str(store.path)


def test_encode_payload_is_canonical():
    assert encode_payload({"b": 1, "a": 2}) == b'{"a":2,"b":1}'
    blob = encode_payload({"a": [1.5, None, "x"]})
    assert json.loads(blob) == {"a": [1.5, None, "x"]}


def test_resolve_store_path_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("VRD_STORE_PATH", raising=False)
    assert resolve_store_path() == (
        __import__("pathlib").Path(".vrd-cache") / DEFAULT_STORE_FILENAME
    )
    monkeypatch.setenv("VRD_STORE_PATH", str(tmp_path / "db.sqlite"))
    assert resolve_store_path() == tmp_path / "db.sqlite"
    # Explicit arguments outrank the environment entirely.
    assert resolve_store_path(cache_dir=tmp_path / "x") == (
        tmp_path / "x" / DEFAULT_STORE_FILENAME
    )
    assert resolve_store_path(store_path=tmp_path / "y.db") == (
        tmp_path / "y.db"
    )
    # Empty values disable storage.
    monkeypatch.setenv("VRD_STORE_PATH", "")
    assert resolve_store_path() is None
    assert ResultStore.resolve() is None
    monkeypatch.setenv("VRD_STORE_PATH", " ")
    assert resolve_store_path() is None


def test_threaded_connections_are_isolated(store):
    """Each thread gets its own sqlite connection; concurrent readers and
    a writer on one store object must not interfere."""
    import threading

    store.put("k", KIND_CAMPAIGN, {"v": 0})
    errors = []

    def reader():
        try:
            for _ in range(50):
                payload = store.get("k", KIND_CAMPAIGN)
                assert payload is not None and "v" in payload
        except Exception as error:  # noqa: BLE001 — surfaced to the test
            errors.append(error)

    def writer():
        try:
            for i in range(50):
                store.put("k", KIND_CAMPAIGN, {"v": i})
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_stats_protocol_breakdown(store):
    store.put("c1", KIND_CAMPAIGN, {"module_id": "M1", "observations": []})
    store.put("c2", KIND_CAMPAIGN, {"module_id": "D0", "observations": []})
    store.put("sw", KIND_SWEEP, {"mixes": []})
    store.put("??", KIND_CAMPAIGN, {"module_id": "NOT-A-DEVICE"})
    breakdown = store.stats()["per_protocol"]
    # M1 is DDR4; D0 is DDR5 and the memsim sweep substrate is DDR5 too.
    assert breakdown == {"DDR4": 1, "DDR5": 2, "unknown": 1}


def test_legacy_kind_rows_are_counted_and_prunable(store):
    """Rows of a kind this version no longer writes (older releases
    stored ``kind='fleet'`` checkpoints) stay visible to ``stats`` and
    ``prune`` and do not disturb campaign reads and writes."""
    store.put("c1", KIND_CAMPAIGN, {"module_id": "M1"})
    blob = encode_payload({"spec": {"n_modules": 4}})
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "INSERT INTO results "
            "(key, kind, checksum, payload, nbytes, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            ("legacy", "fleet", payload_checksum(blob), blob, len(blob),
             time.time() - 60.0),
        )
    store.put("c2", KIND_CAMPAIGN, {"module_id": "M1"})
    assert store.get("c1", KIND_CAMPAIGN) == {"module_id": "M1"}
    assert store.get("c2", KIND_CAMPAIGN) == {"module_id": "M1"}
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["per_kind"] == {KIND_CAMPAIGN: 2, "fleet": 1}
    assert stats["per_protocol"] == {"DDR4": 2, "unknown": 1}

    assert store.prune(older_than_s=0) == 3
    assert store.keys() == []
    store.put("c3", KIND_CAMPAIGN, {"module_id": "M1"})
    assert store.get("c3", KIND_CAMPAIGN) == {"module_id": "M1"}
