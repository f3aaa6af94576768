"""The shared sqlite result store.

* **One connection per store**, opened on the first read or write (a
  new store touches no files), its pragmas set once, every statement run
  under one lock, so threads may share a store.
* **WAL journal** with ``synchronous=NORMAL``: concurrent processes share
  one file, readers never block the writer, and a crash can lose the last
  transactions but never tear the database. A contended statement waits
  up to :data:`BUSY_TIMEOUT_S` (only the switch to WAL at open retries);
  every write is one autocommitted put.
* **The protocol is a column**: :meth:`ResultStore.put` records each
  result's DRAM protocol, so :meth:`ResultStore.stats` reads no payload.
* **Checksummed payloads**: a kind or blake2b checksum mismatch, or an
  undecodable payload, is counted (``store.corrupt``) and evicted, and
  the caller recomputes. A malformed database *file* is counted the same
  way by whichever statement meets it, and reset.
* **Schema version**: a file of another ``meta.schema_version`` (an older
  version's) is rebuilt empty on first open, in one ``BEGIN IMMEDIATE``
  transaction, and its results recompute.
* **An unopenable path** (a directory, a parent that is a file) raises
  :class:`~repro.errors.ConfigurationError` naming it at the first call;
  a read that meets lock contention is a miss.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro import obs
from repro.errors import ConfigurationError, ReproError

T = TypeVar("T")

#: Environment variable naming the database file (empty disables storage).
STORE_PATH_ENV_VAR = "VRD_STORE_PATH"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".vrd-cache"

#: Database filename used when only a cache *directory* is known.
DEFAULT_STORE_FILENAME = "results.sqlite"

#: Payload kinds the schema discriminates.
KIND_CAMPAIGN = "campaign"
KIND_ADAPTIVE = "adaptive"
KIND_SWEEP = "sweep"
KINDS = (KIND_CAMPAIGN, KIND_ADAPTIVE, KIND_SWEEP)

#: Exceptions by which a decoder rejects a payload whose checksum matched
#: (wrong types, missing keys, an unknown format version): corrupt.
_CORRUPT_PAYLOAD_ERRORS = (ReproError, ValueError, KeyError, TypeError,
                           AttributeError)

#: Schema version recorded in the ``meta`` table.
SCHEMA_VERSION = 2

#: Seconds a statement waits for a lock before erroring.
BUSY_TIMEOUT_S = 5.0

#: Attempts at switching a connection to WAL: processes that open one new
#: file at once can meet a lock sqlite's busy handler does not wait on.
_WAL_ATTEMPTS = 5

#: Builds the results table of :data:`SCHEMA_VERSION`, empty. The payload
#: is the last column, so a statement reading only the small columns stops
#: short of its overflow pages; the index covers :meth:`ResultStore.stats`.
_REBUILD = (
    "DROP TABLE IF EXISTS results",
    "CREATE TABLE results ("
    "key TEXT PRIMARY KEY, kind TEXT NOT NULL, protocol TEXT NOT NULL, "
    "nbytes INTEGER NOT NULL, created_at REAL NOT NULL, "
    "checksum TEXT NOT NULL, payload BLOB NOT NULL)",
    "CREATE INDEX results_kind ON results (kind, protocol, nbytes)",
    "INSERT OR REPLACE INTO meta (key, value) "
    f"VALUES ('schema_version', '{SCHEMA_VERSION}')",
)

_INSERT = (
    "INSERT OR REPLACE INTO results "
    "(key, kind, protocol, nbytes, created_at, checksum, payload) "
    "VALUES (?, ?, ?, ?, ?, ?, ?)"
)


def payload_checksum(blob: bytes) -> str:
    """Content digest stored (and verified) alongside every payload."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def encode_payload(payload: dict) -> bytes:
    """Canonical compact JSON encoding of one payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown result kind {kind!r}; expected one of {KINDS}"
        )


def _protocol(kind: str, payload: dict) -> str:
    """The DRAM protocol a result is counted under: ``"DDR5"`` for a
    sweep (the memory-system model's substrate), else the catalog
    protocol of the payload's ``module_id``, or ``"unknown"``."""
    if kind == KIND_SWEEP:
        return "DDR5"
    module_id = payload.get("module_id")
    if not isinstance(module_id, str):
        return "unknown"
    # Lazy import: the catalog pulls numpy, which the store layer
    # itself never needs.
    from repro.chips.catalog import spec as catalog_spec

    try:
        return catalog_spec(module_id).protocol
    except ReproError:
        return "unknown"


def _set_pragmas(conn: sqlite3.Connection) -> None:
    for attempt in range(_WAL_ATTEMPTS):
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError:
            if attempt == _WAL_ATTEMPTS - 1:
                raise
            time.sleep(0.05 * (attempt + 1))
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA temp_store=MEMORY")
    conn.execute("PRAGMA cache_size=-16000")  # 16 MB page cache


def _ensure_schema(conn: sqlite3.Connection) -> None:
    """Create the schema, or rebuild another version's file empty."""
    with conn:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta "
            "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if version != (str(SCHEMA_VERSION),):
            for statement in _REBUILD:
                conn.execute(statement)


def resolve_store_path(
    cache_dir: "Path | str | None" = None,
    store_path: "Path | str | None" = None,
) -> Optional[Path]:
    """Database path per the resolution precedence, or ``None`` (disabled).

    Explicit ``store_path`` wins, then an explicit ``cache_dir`` (the
    database lands at ``cache_dir/results.sqlite``), then
    ``$VRD_STORE_PATH``, then the default ``.vrd-cache/results.sqlite``.
    An *empty* ``VRD_STORE_PATH`` disables storage entirely (returns
    ``None``).
    """
    if store_path is not None:
        return Path(store_path)
    if cache_dir is not None:
        return Path(cache_dir) / DEFAULT_STORE_FILENAME
    env_path = os.environ.get(STORE_PATH_ENV_VAR)
    if env_path is not None:
        return Path(env_path) if env_path.strip() else None
    return Path(DEFAULT_CACHE_DIR) / DEFAULT_STORE_FILENAME


class ResultStore:
    """One content-addressed result corpus in one sqlite database.

    Args:
        path: Database file (created lazily, with parent directories).
    """

    def __init__(self, path: "Path | str"):
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    @classmethod
    def resolve(
        cls,
        cache_dir: "Path | str | None" = None,
        store_path: "Path | str | None" = None,
    ) -> "Optional[ResultStore]":
        """Store at the resolved path (see :func:`resolve_store_path`),
        or ``None`` when storage is disabled via the environment."""
        path = resolve_store_path(cache_dir, store_path)
        return None if path is None else cls(path)

    # -- the connection ------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        """The store's connection, opened on first use (lock held)."""
        if self._conn is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
                    check_same_thread=False,
                )
            except (OSError, sqlite3.OperationalError) as error:
                raise ConfigurationError(
                    f"cannot open the result store {self.path}: {error}"
                ) from None
            try:
                _set_pragmas(conn)
                _ensure_schema(conn)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def _execute(self, sql: str, params: tuple = ()) -> Optional[tuple]:
        """``(rows, rowcount)`` of one statement, or ``None`` when it met a
        malformed database file, which is then counted under
        ``store.corrupt`` and reset. Lock contention past the busy timeout
        raises :class:`sqlite3.OperationalError`."""
        with self._lock:
            try:
                cursor = self._open().execute(sql, params)
                return cursor.fetchall(), cursor.rowcount
            except sqlite3.OperationalError:
                raise
            except sqlite3.DatabaseError:
                obs.active().counter_add("store.corrupt")
                self._reset_database()
                return None

    def close(self) -> None:
        """Close the store's connection; the next call reopens it."""
        with self._lock:
            self._disconnect()

    def _disconnect(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _reset_database(self) -> None:
        """Last-resort recovery from a malformed database file: drop it
        (plus WAL/SHM sidecars), so the next statement opens an empty
        store and every entry recomputes. The caller holds the lock."""
        self._disconnect()
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(OSError):
                Path(f"{self.path}{suffix}").unlink()

    # -- reads ---------------------------------------------------------

    def fetch(self, key: str, kind: str) -> Tuple[Optional[dict], str]:
        """``(payload, status)`` for one entry: ``"hit"`` (verified and
        decoded), ``"miss"`` (absent, or the read met lock contention;
        nothing is evicted) or ``"corrupt"`` (kind or checksum mismatch,
        undecodable payload, or a malformed database; counted under
        ``store.corrupt`` and evicted)."""
        recorder = obs.active()
        if not self.path.exists():
            # Nothing stored yet: stay lazy.
            recorder.counter_add("store.miss")
            return None, "miss"
        try:
            result = self._execute(
                "SELECT kind, checksum, payload FROM results WHERE key = ?",
                (key,),
            )
        except sqlite3.OperationalError:
            result = [], 0  # lock contention: a miss, nothing evicted
        if result is None:
            return None, "corrupt"
        if not result[0]:
            recorder.counter_add("store.miss")
            return None, "miss"
        stored_kind, checksum, blob = result[0][0]
        try:
            if stored_kind != kind or payload_checksum(blob) != checksum:
                raise ValueError("kind or checksum mismatch")
            payload = json.loads(blob.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload root must be an object")
        except ValueError:  # UnicodeDecodeError included
            recorder.counter_add("store.corrupt")
            self.evict(key)
            return None, "corrupt"
        recorder.counter_add("store.hit")
        return payload, "hit"

    def load(
        self, key: str, kind: str, decode: Callable[[dict], T]
    ) -> Optional[T]:
        """``decode(payload)`` of the entry for ``key``, or ``None``.

        The one read path of every cached result: counts ``cache.hit``,
        ``cache.miss`` or ``cache.corrupt``. An entry :meth:`fetch` finds
        corrupt, or whose payload ``decode`` rejects (checksum intact,
        structure mangled: tampering or version skew), counts as corrupt
        and is evicted, so the caller recomputes.
        """
        recorder = obs.active()
        payload, status = self.fetch(key, kind)
        if status == "miss":
            recorder.counter_add("cache.miss")
            return None
        if status == "hit":
            try:
                result = decode(payload)
            except _CORRUPT_PAYLOAD_ERRORS:
                self.evict(key)
            else:
                recorder.counter_add("cache.hit")
                return result
        recorder.counter_add("cache.corrupt")
        return None

    def stats(self) -> Dict[str, object]:
        """Entry counts per kind and per DRAM protocol (as :meth:`put`
        recorded it), plus total payload bytes, from one ``GROUP BY`` that
        reads no payload. A malformed file is reset: an empty store."""
        per_kind, per_protocol, total_bytes = Counter(), Counter(), 0
        result = self._execute(
            "SELECT kind, protocol, COUNT(*), SUM(nbytes) FROM results "
            "GROUP BY kind, protocol"
        ) if self.path.exists() else None
        for kind, protocol, count, nbytes in result[0] if result else ():
            per_kind[kind] += count
            per_protocol[protocol] += count
            total_bytes += nbytes
        return {
            "path": str(self.path),
            "entries": sum(per_kind.values()),
            "per_kind": dict(per_kind),
            "payload_bytes": total_bytes,
            "per_protocol": dict(sorted(per_protocol.items())),
        }

    # -- writes --------------------------------------------------------

    def put(self, key: str, kind: str, payload: dict) -> None:
        """Insert or replace one entry, in one autocommitted statement."""
        _check_kind(kind)
        blob = encode_payload(payload)
        row = (
            key, kind, _protocol(kind, payload), len(blob), time.time(),
            payload_checksum(blob), blob,
        )
        if self._execute(_INSERT, row) is None:
            # The file was malformed and has been reset: write afresh.
            self._execute(_INSERT, row)
        obs.active().counter_add("store.put")

    def save(self, key: str, kind: str, payload: dict) -> None:
        """:meth:`put` one computed result, counted under ``cache.store``."""
        self.put(key, kind, payload)
        obs.active().counter_add("cache.store")

    def prune(
        self,
        kind: Optional[str] = None,
        older_than_s: Optional[float] = None,
    ) -> int:
        """Delete entries by kind and/or age; returns how many went.

        ``older_than_s`` keeps entries written within the last that-many
        seconds; it must be finite and non-negative (a negative age would
        select every entry). With both arguments ``None`` every entry
        goes."""
        if kind is not None:
            _check_kind(kind)
        if older_than_s is not None and not (
            math.isfinite(older_than_s) and older_than_s >= 0
        ):
            raise ConfigurationError(
                f"older_than_s must be a finite non-negative age, got "
                f"{older_than_s!r}"
            )
        if not self.path.exists():
            return 0
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if older_than_s is not None:
            clauses.append("created_at < ?")
            params.append(time.time() - older_than_s)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        try:
            result = self._execute(
                f"DELETE FROM results{where}", tuple(params)  # noqa: S608
            )
        except sqlite3.OperationalError:
            return 0
        pruned = 0 if result is None else result[1]
        if pruned:
            obs.active().counter_add("store.pruned", pruned)
        return pruned

    def evict(self, key: str) -> None:
        """Remove one entry (no-op if absent or the database is gone)."""
        if self.path.exists():
            with contextlib.suppress(sqlite3.OperationalError):
                self._execute("DELETE FROM results WHERE key = ?", (key,))
