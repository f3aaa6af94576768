"""The shared sqlite result store.

Design notes (the concurrency story):

* **WAL journal.** Readers never block the single writer and vice versa;
  concurrent CLI runs and benchmark processes share one database
  file. ``synchronous=NORMAL`` is the documented safe pairing with WAL —
  a crash can lose the last transactions but can never tear the database.
* **Busy handling.** Every connection sets ``busy_timeout``; on top of
  that, writes retry a few times with backoff on ``database is locked``
  (the pragma does not cover every contention window, e.g. schema setup
  racing between processes).
* **Batched writes.** :meth:`ResultStore.put_many` lands any number of
  entries inside one ``BEGIN IMMEDIATE`` transaction — one fsync for a
  whole batch instead of one per entry.
* **Checksummed payloads.** Every row stores a blake2b digest of its
  payload blob. A mismatch (torn write, tampering, bit rot) is detected
  on read, counted (``store.corrupt``), the row is evicted, and the
  caller sees a miss and recomputes. A malformed database *file*
  (truncated page, overwritten header) is detected the same way;
  recovery resets the whole database so subsequent work recomputes
  cleanly instead of crashing.
* **Lazy open.** Constructing a store (or resolving one for pure key
  computation) touches no files; the database and its schema are created
  on the first read or write.

Connections are per-thread (sqlite3 objects must not hop threads); a
generation counter invalidates them after a corruption reset.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple, TypeVar

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
#: (wrong types, missing keys, an unknown format version): the entry is
#: corrupt, not a hit.
_CORRUPT_PAYLOAD_ERRORS = (
    ReproError,
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
)

#: Schema version recorded in the ``meta`` table.
SCHEMA_VERSION = 1

#: Seconds a connection waits for a lock before erroring (pragma).
BUSY_TIMEOUT_S = 5.0

#: Explicit retries layered over the busy timeout.
_LOCK_RETRIES = 5
_LOCK_BACKOFF_S = 0.05

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key        TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    checksum   TEXT NOT NULL,
    payload    BLOB NOT NULL,
    nbytes     INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_kind ON results (kind);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def payload_checksum(blob: bytes) -> str:
    """Content digest stored (and verified) alongside every payload."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def encode_payload(payload: dict) -> bytes:
    """Canonical compact JSON encoding of one payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


#: Bytes of a payload read at a time by :func:`_is_nul_free_ascii`.
_SCAN_CHUNK_BYTES = 16 * 1024


def _is_nul_free_ascii(conn: sqlite3.Connection, rowid: int) -> bool:
    """Whether row ``rowid``'s payload is ASCII without a NUL byte (as all
    :func:`encode_payload` writes), read in chunks so no whole payload
    is held."""
    with conn.blobopen("results", "payload", rowid, readonly=True) as blob:
        while chunk := blob.read(_SCAN_CHUNK_BYTES):
            if not chunk.isascii() or b"\0" in chunk:
                return False
    return True


def _protocol_of_module(module_id) -> str:
    """The catalog protocol of a payload's ``module_id``, or
    ``"unknown"`` for a non-string or non-catalog id."""
    if not isinstance(module_id, str):
        return "unknown"
    # Lazy import: the catalog pulls numpy, which the store layer
    # itself never needs.
    from repro.chips.catalog import spec as catalog_spec

    try:
        return catalog_spec(module_id).protocol
    except ReproError:
        return "unknown"


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
        if not env_path.strip():
            return None
        return Path(env_path)
    return Path(DEFAULT_CACHE_DIR) / DEFAULT_STORE_FILENAME


class ResultStore:
    """One content-addressed result corpus in one sqlite database.

    Args:
        path: Database file (created lazily, with parent directories).
    """

    def __init__(self, path: "Path | str"):
        self.path = Path(path)
        self._local = threading.local()
        self._generation = 0
        self._open_lock = threading.Lock()
        self._opened = False

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

    # -- connection management -----------------------------------------

    def _configure(self, conn: sqlite3.Connection) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.execute("PRAGMA cache_size=-16000")  # 16 MB page cache

    def _connection(self) -> sqlite3.Connection:
        """Thread-local connection, (re)opened lazily and invalidated by
        corruption resets."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.generation == self._generation:
            return conn
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._ensure_created()
        conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_S, isolation_level=None
        )
        self._configure(conn)
        self._local.conn = conn
        self._local.generation = self._generation
        return conn

    def _ensure_created(self) -> None:
        """Create the database file and its schema (once per file)."""
        with self._open_lock:
            if self._opened and self.path.exists():
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path), timeout=BUSY_TIMEOUT_S, isolation_level=None
            )
            try:
                self._configure(conn)
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            finally:
                conn.close()
            self._opened = True

    def close(self) -> None:
        """Close this thread's connection (other threads close their own)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
            self._local.conn = None

    def _reset_database(self) -> None:
        """Last-resort recovery from a malformed database file: drop it
        (plus WAL/SHM sidecars) and start empty, so every entry becomes a
        clean miss that recomputes."""
        self.close()
        with self._open_lock:
            self._generation += 1
            self._opened = False
            for suffix in ("", "-wal", "-shm"):
                try:
                    Path(f"{self.path}{suffix}").unlink()
                except OSError:
                    pass

    # -- retry plumbing ------------------------------------------------

    @staticmethod
    def _is_locked(error: sqlite3.OperationalError) -> bool:
        message = str(error).lower()
        return "locked" in message or "busy" in message

    def _with_retry(self, operation):
        """Run ``operation(conn)``, retrying on lock contention."""
        last: Optional[BaseException] = None
        for attempt in range(_LOCK_RETRIES):
            try:
                return operation(self._connection())
            except sqlite3.OperationalError as error:
                if not self._is_locked(error):
                    raise
                last = error
                time.sleep(_LOCK_BACKOFF_S * (attempt + 1))
        raise last  # noqa: B904 — the original lock error, after retries

    # -- reads ---------------------------------------------------------

    def fetch(self, key: str, kind: str) -> Tuple[Optional[dict], str]:
        """``(payload, status)`` for one entry.

        Status is ``"hit"`` (payload verified and decoded), ``"miss"``
        (absent, or the database is unreadable — permissions/races — in
        which case nothing is evicted), or ``"corrupt"`` (checksum or
        kind mismatch, undecodable payload, or a malformed database;
        counted under ``store.corrupt``, evicted, payload ``None``).
        """
        recorder = obs.active()
        if not self.path.exists():
            # Nothing stored yet: stay lazy.
            recorder.counter_add("store.miss")
            return None, "miss"
        try:
            row = self._with_retry(
                lambda conn: conn.execute(
                    "SELECT kind, checksum, payload FROM results "
                    "WHERE key = ?",
                    (key,),
                ).fetchone()
            )
        except sqlite3.OperationalError:
            recorder.counter_add("store.miss")
            return None, "miss"  # unreadable (open/permission races)
        except sqlite3.DatabaseError:
            # Torn page, truncated file, not-a-database header: the file
            # itself is damaged. Reset so everything recomputes.
            recorder.counter_add("store.corrupt")
            self._reset_database()
            return None, "corrupt"
        if row is None:
            recorder.counter_add("store.miss")
            return None, "miss"
        stored_kind, checksum, blob = row
        if stored_kind != kind or payload_checksum(blob) != checksum:
            recorder.counter_add("store.corrupt")
            self.evict(key)
            return None, "corrupt"
        try:
            payload = json.loads(blob.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload root must be an object")
        except (ValueError, UnicodeDecodeError):
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
        """Entry counts per kind plus total payload bytes.

        The ``per_protocol`` map attributes every entry to a DRAM
        protocol (see :meth:`protocol_breakdown`), so ``store stats``
        can show which protocols a shared cache actually holds.
        """
        per_kind: Dict[str, int] = {}
        total_bytes = 0
        if self.path.exists():
            rows = self._with_retry(
                lambda conn: conn.execute(
                    "SELECT kind, COUNT(*), COALESCE(SUM(nbytes), 0) "
                    "FROM results GROUP BY kind"
                ).fetchall()
            )
            for kind, count, nbytes in rows:
                per_kind[kind] = int(count)
                total_bytes += int(nbytes)
        return {
            "path": str(self.path),
            "entries": sum(per_kind.values()),
            "per_kind": per_kind,
            "payload_bytes": total_bytes,
            "per_protocol": self.protocol_breakdown(),
        }

    def protocol_breakdown(self) -> Dict[str, int]:
        """Entry counts per DRAM protocol, best-effort.

        Attribution per kind:

        * ``campaign``/``adaptive`` — the payload's ``module_id``
          resolved through the device catalog;
        * ``sweep`` — ``"DDR5"`` (the memory-system model's substrate).

        Entries that cannot be attributed (non-catalog module ids,
        undecodable payloads) count under ``"unknown"``.

        SQLite's JSON functions read each ``module_id`` in place, and the
        payload is scanned in fixed-size chunks, so the count holds no
        whole payload in memory. The SQL read is taken only where it must
        agree with decoding the payload with ``json``: an ASCII payload
        without NUL bytes (SQLite reads text up to the first) that SQLite
        parses, names ``module_id`` at most once (SQLite keeps the first
        of two, ``json`` the last) and yields an id that is valid UTF-8.
        Every other payload (corrupt bytes, the ``NaN``/``Infinity``
        literals ``json`` writes and reads) is decoded whole in Python,
        one at a time, as the reader would.
        """
        if not self.path.exists():
            return {}

        def count(conn) -> Dict[str, int]:
            counts: Dict[str, int] = {}
            cursor = conn.execute(
                "SELECT rowid, kind, parsed, CASE WHEN parsed THEN "
                "CASE json_type(doc, '$.module_id') WHEN 'text' "
                "THEN CAST(json_extract(doc, '$.module_id') AS BLOB) END END "
                "FROM (SELECT rowid, kind, doc, CASE "
                "WHEN kind = ? OR NOT json_valid(doc) THEN 0 "
                "ELSE (SELECT COUNT(*) FROM json_each(doc) "
                "WHERE key = 'module_id') < 2 END AS parsed "
                "FROM (SELECT rowid, kind, CAST(payload AS TEXT) AS doc "
                "FROM results))",
                (KIND_SWEEP,),
            )
            for rowid, kind, parsed, module_id in cursor:
                if kind == KIND_SWEEP:
                    label = "DDR5"
                elif parsed and _is_nul_free_ascii(conn, rowid):
                    try:
                        label = _protocol_of_module(
                            None if module_id is None
                            else module_id.decode("utf-8")
                        )
                    except UnicodeDecodeError:  # a lone surrogate escape
                        label = self._protocol_of_rowid(conn, kind, rowid)
                else:
                    label = self._protocol_of_rowid(conn, kind, rowid)
                counts[label] = counts.get(label, 0) + 1
            return counts

        return dict(sorted(self._with_retry(count).items()))

    @classmethod
    def _protocol_of_rowid(cls, conn, kind: str, rowid: int) -> str:
        (blob,) = conn.execute(
            "SELECT payload FROM results WHERE rowid = ?", (rowid,)
        ).fetchone()
        return cls._protocol_of_entry(kind, blob)

    @staticmethod
    def _protocol_of_entry(kind: str, blob: bytes) -> str:
        if kind == KIND_SWEEP:
            return "DDR5"
        try:
            payload = json.loads(blob)
        except (ValueError, TypeError, UnicodeDecodeError):
            return "unknown"
        if not isinstance(payload, dict):
            return "unknown"
        return _protocol_of_module(payload.get("module_id"))

    # -- writes --------------------------------------------------------

    def put(self, key: str, kind: str, payload: dict) -> None:
        """Insert or replace one entry."""
        self.put_many([(key, kind, payload)])

    def save(self, key: str, kind: str, payload: dict) -> None:
        """:meth:`put` one computed result, counted under ``cache.store``."""
        self.put(key, kind, payload)
        obs.active().counter_add("cache.store")

    def put_many(
        self, entries: Iterable[Tuple[str, str, dict]]
    ) -> int:
        """Insert or replace many entries inside one transaction.

        Returns the number of entries written: one transaction, one
        fsync for the whole batch.
        """
        rows = []
        now = time.time()
        for key, kind, payload in entries:
            if kind not in KINDS:
                raise ConfigurationError(
                    f"unknown result kind {kind!r}; expected one of {KINDS}"
                )
            blob = encode_payload(payload)
            rows.append(
                (key, kind, payload_checksum(blob), blob, len(blob), now)
            )
        if not rows:
            return 0

        def write(conn: sqlite3.Connection):
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(key, kind, checksum, payload, nbytes, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    rows,
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return len(rows)

        written = self._with_retry(write)
        obs.active().counter_add("store.put", written)
        return written

    def prune(
        self,
        kind: Optional[str] = None,
        older_than_s: Optional[float] = None,
    ) -> int:
        """Delete entries by kind and/or age; returns how many went.

        ``older_than_s`` keeps entries written within the last that-many
        seconds (the ``created_at`` column); it must be finite and
        non-negative, since a negative age would put the cutoff in the
        future and select every entry. With both arguments ``None``
        every entry is deleted. Rows of a kind outside :data:`KINDS`,
        left by older versions, are still selected by age alone.
        """
        if kind is not None and kind not in KINDS:
            raise ConfigurationError(
                f"unknown result kind {kind!r}; expected one of {KINDS}"
            )
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

        def delete(conn: sqlite3.Connection) -> int:
            return conn.execute(
                f"DELETE FROM results{where}", params  # noqa: S608 — fixed
            ).rowcount

        try:
            pruned = int(self._with_retry(delete))
        except sqlite3.DatabaseError:
            return 0
        if pruned:
            obs.active().counter_add("store.pruned", pruned)
        return pruned

    def evict(self, key: str) -> None:
        """Remove one entry (no-op if absent or the database is gone)."""
        if not self.path.exists():
            return
        try:
            self._with_retry(
                lambda conn: conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
            )
        except sqlite3.DatabaseError:
            pass
