"""Concurrent access and on-disk corruption for the shared sqlite store.

Several CLI runs can share one store: four writer processes and
concurrent readers share one database file with no lost or torn entries. Plus corruption
injection: a truncated database page is detected, the file is reset, and
a recompute lands cleanly. (Bad payload checksums are covered in
``tests/store/test_store.py`` and ``tests/core/test_engine.py``.)
"""

import time
from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.store import DEFAULT_STORE_FILENAME, KIND_CAMPAIGN, ResultStore

N_PROCS = 4
ENTRIES_PER_WRITER = 40


def _expected_payload(writer_id: int, i: int) -> dict:
    # A payload whose internal fields cross-check the key, so a torn or
    # swapped read is detectable as an inconsistency, not just a diff.
    return {"writer": writer_id, "i": i, "pad": "x" * 200}


def _write_batch(task):
    """Writer process: put one batch of distinct keys into the shared db."""
    db_path, writer_id = task
    store = ResultStore(db_path)
    entries = [
        (f"w{writer_id}-k{i}", KIND_CAMPAIGN, _expected_payload(writer_id, i))
        for i in range(ENTRIES_PER_WRITER)
    ]
    # Every entry is one put: the writers race on single-statement writes.
    for key, kind, payload in entries[: ENTRIES_PER_WRITER // 2]:
        store.put(key, kind, payload)
    written = 0
    for key, kind, payload in entries[ENTRIES_PER_WRITER // 2:]:
        store.put(key, kind, payload)
        written += 1
    store.close()
    return ENTRIES_PER_WRITER // 2 + written


def _read_loop(task):
    """Reader process: hammer fetches while writers run; report anomalies."""
    db_path, n_writers, deadline_s = task
    store = ResultStore(db_path)
    anomalies = []
    deadline = time.monotonic() + deadline_s
    i = 0
    while time.monotonic() < deadline:
        writer_id = i % n_writers
        index = i % ENTRIES_PER_WRITER
        key = f"w{writer_id}-k{index}"
        payload, status = store.fetch(key, KIND_CAMPAIGN)
        if status == "corrupt":
            anomalies.append(f"{key}: corrupt")
        elif status == "hit" and payload != _expected_payload(writer_id, index):
            anomalies.append(f"{key}: torn read {payload!r}")
        i += 1
    store.close()
    return anomalies


def test_multiprocess_writers_and_readers_no_lost_or_torn_entries(tmp_path):
    db_path = tmp_path / DEFAULT_STORE_FILENAME
    writer_tasks = [(db_path, writer_id) for writer_id in range(N_PROCS)]
    reader_tasks = [(db_path, N_PROCS, 1.0) for _ in range(2)]
    with ProcessPoolExecutor(max_workers=N_PROCS + len(reader_tasks)) as pool:
        readers = [pool.submit(_read_loop, task) for task in reader_tasks]
        written = list(pool.map(_write_batch, writer_tasks))
        anomalies = [a for future in readers for a in future.result()]

    assert written == [ENTRIES_PER_WRITER] * N_PROCS
    assert anomalies == []

    # No lost entries: every key every writer claimed to write is present,
    # byte-exact.
    store = ResultStore(db_path)
    assert store.stats()["entries"] == N_PROCS * ENTRIES_PER_WRITER
    for writer_id in range(N_PROCS):
        for i in range(ENTRIES_PER_WRITER):
            payload = store.fetch(f"w{writer_id}-k{i}", KIND_CAMPAIGN)
            assert payload == (_expected_payload(writer_id, i), "hit")


def test_truncated_database_page_detect_reset_recompute(tmp_path):
    db_path = tmp_path / DEFAULT_STORE_FILENAME
    store = ResultStore(db_path)
    # Enough payload bytes to span several database pages, so a torn-off
    # tail removes real table content.
    for i in range(50):
        store.put(f"k{i}", KIND_CAMPAIGN, {"i": i, "pad": "y" * 600})
    store.close()
    size = db_path.stat().st_size
    with open(db_path, "r+b") as handle:
        handle.truncate(size // 2 + 13)
    for sidecar in ("-wal", "-shm"):
        sidecar_path = db_path.parent / (db_path.name + sidecar)
        if sidecar_path.exists():
            sidecar_path.unlink()

    with obs.tracing() as recorder:
        payload, status = store.fetch("k0", KIND_CAMPAIGN)
    assert payload is None and status == "corrupt"
    assert recorder.counters.get("store.corrupt") == 1
    # The malformed file was reset: the store is empty but usable, and a
    # recompute lands cleanly.
    store.put("k0", KIND_CAMPAIGN, {"i": 0, "recomputed": True})
    assert store.fetch("k0", KIND_CAMPAIGN) == (
        {"i": 0, "recomputed": True}, "hit"
    )
