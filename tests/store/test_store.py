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
    assert store.fetch("k", KIND_CAMPAIGN) == (None, "miss")
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
    assert store.fetch("k", KIND_CAMPAIGN) == (None, "miss")
    assert store.fetch("k", KIND_SWEEP) == (None, "miss")
    assert not store.path.exists()
    store.put("other", KIND_CAMPAIGN, {"x": 1})
    assert store.stats()["per_kind"] == {KIND_CAMPAIGN: 1}


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
    # Evicted: the slot can recompute cleanly.
    assert store.fetch("k1", KIND_CAMPAIGN) == (None, "miss")


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
    assert store.fetch("k1", KIND_CAMPAIGN) == (None, "miss")


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
    assert store.fetch("k1", KIND_CAMPAIGN) == (None, "miss")


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
    assert store.fetch("k2", KIND_CAMPAIGN) == ({"b": 2}, "hit")
    assert store.fetch("k1", KIND_CAMPAIGN) == (None, "miss")


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
    assert store.stats()["per_kind"] == {KIND_CAMPAIGN: 5, KIND_SWEEP: 5}


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
    assert store.stats()["per_kind"] == {KIND_CAMPAIGN: 1, KIND_SWEEP: 1}
    assert store.prune(older_than_s=0.0) == 2


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
                payload, _ = store.fetch("k", KIND_CAMPAIGN)
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


def _insert_raw(store, key: str, kind: str, blob: bytes) -> None:
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "INSERT INTO results "
            "(key, kind, checksum, payload, nbytes, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (key, kind, payload_checksum(blob), blob, len(blob), time.time()),
        )


def test_protocol_breakdown_reads_module_ids_as_the_json_decoder_does(store):
    """The in-SQL ``module_id`` read attributes every entry exactly as
    decoding its payload with ``json`` does, corrupt ones included."""
    store.put("ok", KIND_CAMPAIGN, {"module_id": "M1", "x": [1.5, "a"]})
    store.put("nan", KIND_ADAPTIVE, {"module_id": "D0", "ci": float("nan")})
    store.put("inf", KIND_CAMPAIGN, {"module_id": "M1", "ci": float("inf")})
    store.put("num", KIND_CAMPAIGN, {"module_id": 7})
    store.put("none", KIND_CAMPAIGN, {"module_id": None})
    store.put("missing", KIND_CAMPAIGN, {"observations": []})
    store.put("nested", KIND_CAMPAIGN, {"spec": {"module_id": "M1"}})
    store.put("sweep", KIND_SWEEP, {"module_id": "M1"})
    raw = {
        "escaped": b'{"module_id": "M\\u0031"}',
        "list": b'["M1"]',
        "string": b'"M1"',
        "truncated": b'{"module_id": "M1"',
        "binary": b"\xff\xfe\x00{",
        "empty": b"",
        "bom": b'\xef\xbb\xbf{"module_id": "M1"}',
        "unicode": '{"module_id": "Mé"}'.encode("utf-8"),
        "flipped-id": b'{"module_id": "M\xb1"}',
        "stray-byte": b'{"module_id": "M1", "x": "\xe1"}',
        "surrogate": b'{"module_id": "\\ud800"}',
        "pair": b'{"module_id": "\\ud83d\\ude00"}',
        "duplicate": b'{"module_id": "M1", "module_id": "X"}',
        "nul-tail": b'{"module_id": "M1"}\x00}',
        "form-feed": b'\x0c{"module_id": "M1"}',
    }
    for key, blob in raw.items():
        _insert_raw(store, key, KIND_CAMPAIGN, blob)
    _insert_raw(store, "sweep-junk", KIND_SWEEP, b"\xff")

    with sqlite3.connect(store.path) as conn:
        rows = conn.execute("SELECT kind, payload FROM results").fetchall()
    expected = {}
    for kind, blob in rows:
        label = ResultStore._protocol_of_entry(kind, blob)
        expected[label] = expected.get(label, 0) + 1
    assert store.protocol_breakdown() == dict(sorted(expected.items()))
    assert store.stats()["per_protocol"] == {"DDR4": 4, "DDR5": 3, "unknown": 17}


def test_protocol_breakdown_of_bit_flipped_payloads_matches_the_decoder(store):
    """Every single-bit flip of a stored payload is attributed as
    decoding it with ``json`` attributes it."""
    payload = {"ci": [1.5, -2e-3], "module_id": "M1", "n": "a b"}
    store.put("intact", KIND_CAMPAIGN, payload)
    blob = encode_payload(payload)
    for i in range(len(blob) * 8):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        _insert_raw(store, f"flip{i}", KIND_CAMPAIGN, bytes(flipped))
    with sqlite3.connect(store.path) as conn:
        blobs = [b for (b,) in conn.execute("SELECT payload FROM results")]
    expected = {}
    for flipped in blobs:
        label = ResultStore._protocol_of_entry(KIND_CAMPAIGN, flipped)
        expected[label] = expected.get(label, 0) + 1
    assert store.protocol_breakdown() == dict(sorted(expected.items()))


def test_sqlite_json_valid_agrees_with_json_on_ascii_payloads():
    """``protocol_breakdown`` trusts SQLite's ``json_valid`` for ASCII
    payloads without NUL: every ASCII byte inserted at, or written over,
    every position of a stored payload is accepted by both parsers or by
    neither."""
    blob = encode_payload({"ci": [1.5, -2e-3], "module_id": "M1", "n": "a b"})
    conn = sqlite3.connect(":memory:")
    for pos in range(len(blob) + 1):
        for byte in range(1, 128):
            for doc in (
                blob[:pos] + bytes([byte]) + blob[pos:],
                blob[:pos] + bytes([byte]) + blob[pos + 1:],
            ):
                (sqlite_ok,) = conn.execute(
                    "SELECT json_valid(CAST(? AS TEXT))", (doc,)
                ).fetchone()
                try:
                    json.loads(doc)
                except ValueError:
                    json_ok = False
                else:
                    json_ok = True
                assert bool(sqlite_ok) == json_ok, doc


def test_stats_memory_does_not_grow_with_payload_size(tmp_path):
    """``stats()`` reads each entry's module id in SQL; its traced Python
    peak stays flat when every payload is 200x larger."""
    import tracemalloc

    def peak(entry_bytes: int) -> int:
        store = ResultStore(tmp_path / f"{entry_bytes}.sqlite")
        store.put_many([
            (f"k{i}", KIND_CAMPAIGN, {"module_id": "M1", "blob": "x" * entry_bytes})
            for i in range(20)
        ])
        store.stats()  # warm: connection, catalog import
        tracemalloc.start()
        try:
            assert store.stats()["per_protocol"] == {"DDR4": 20}
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(200_000)
    # 20 decoded 200 kB payloads would be 4 MB; allow allocator noise only.
    assert large < small + 64_000, (small, large)


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
    assert store.fetch("c1", KIND_CAMPAIGN) == ({"module_id": "M1"}, "hit")
    assert store.fetch("c2", KIND_CAMPAIGN) == ({"module_id": "M1"}, "hit")
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["per_kind"] == {KIND_CAMPAIGN: 2, "fleet": 1}
    assert stats["per_protocol"] == {"DDR4": 2, "unknown": 1}

    assert store.prune(older_than_s=0) == 3
    assert store.stats()["entries"] == 0
    store.put("c3", KIND_CAMPAIGN, {"module_id": "M1"})
    assert store.fetch("c3", KIND_CAMPAIGN) == ({"module_id": "M1"}, "hit")


def test_load_and_save_count_every_outcome(store):
    """``load``/``save`` are the one cached-result path: each call counts
    exactly one of ``cache.hit``/``miss``/``corrupt``/``store``, and a
    payload the decoder rejects is evicted."""

    def decode(payload):
        return payload["value"]

    with obs.tracing() as recorder:
        assert store.load("k", KIND_SWEEP, decode) is None
        store.save("k", KIND_SWEEP, {"value": 7})
        assert store.load("k", KIND_SWEEP, decode) == 7
        assert store.load("k", KIND_CAMPAIGN, decode) is None  # wrong kind
        store.save("k", KIND_SWEEP, {"other": 7})
        assert store.load("k", KIND_SWEEP, decode) is None  # KeyError
    assert {
        name: count for name, count in recorder.counters.items()
        if name.startswith("cache.")
    } == {"cache.miss": 1, "cache.store": 2, "cache.hit": 1,
          "cache.corrupt": 2}
    assert store.fetch("k", KIND_SWEEP) == (None, "miss")


#: Keys the campaign and sweep recipes hashed to before the cache layer
#: was folded into ``ResultStore.load``/``save``: stores written then
#: must still hit.
RECORDED_KEYS = {
    "module_campaign": "374b25f5cb526bbcb732f68e77222e30",
    "adaptive_module_campaign": "8d21acabda40ba379f3bacad9dff0a12",
    "sweep": "f8a82257ecba71e50f163390867e49a1",
}


def test_cache_keys_are_stable(tmp_path):
    from repro.analysis.figures import adaptive_module_campaign, module_campaign
    from repro.core.engine import CampaignCache
    from repro.memsim.sweep import SweepSpec, sweep_key

    keys = {}

    class KeyCapture(CampaignCache):
        """Records the driver's key and answers with a sentinel, so no
        campaign runs."""

        def load(self, key):
            keys["module_campaign"] = key
            return "sentinel"

        def load_adaptive(self, key):
            keys["adaptive_module_campaign"] = key
            return "sentinel"

    cache = KeyCapture(tmp_path)
    assert module_campaign(
        "M1", rows_per_block=1, n_measurements=100, cache=cache
    ) == "sentinel"
    assert adaptive_module_campaign(
        "M1", rows_per_block=1, n_measurements=100, cache=cache
    ) == "sentinel"
    keys["sweep"] = sweep_key(SweepSpec())
    assert keys == RECORDED_KEYS
