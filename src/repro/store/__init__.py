"""Durable, shared result store for campaign/adaptive/sweep payloads.

One sqlite database (WAL mode, busy timeout) holds every cached result
the reproduction produces, content-addressed by the recipe keys of
:meth:`~repro.core.engine.CampaignCache.key` and
:func:`~repro.memsim.sweep.sweep_key`, with a ``kind`` column
discriminating campaign, adaptive and sweep payloads and a ``protocol``
column naming each result's DRAM protocol. Concurrent processes share
the database without aliasing or corruption.
:class:`~repro.store.db.ResultStore` is the store itself: one lazily
opened connection per store, checksummed payloads, and one typed
read/write pair (:meth:`~repro.store.db.ResultStore.load` /
:meth:`~repro.store.db.ResultStore.save`) through which every cached
result passes, so corrupt entries (bad checksum, torn page, tampered
payload) are detected, counted, evicted, and recomputed in one place —
never served.

Resolution precedence: an explicit path, else ``$VRD_STORE_PATH`` (the
database file), else ``.vrd-cache/results.sqlite``. An empty
``VRD_STORE_PATH`` disables storage entirely.
"""

from repro.store.db import (  # noqa: F401
    DEFAULT_CACHE_DIR,
    DEFAULT_STORE_FILENAME,
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    KIND_SWEEP,
    KINDS,
    STORE_PATH_ENV_VAR,
    ResultStore,
    resolve_store_path,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_STORE_FILENAME",
    "KIND_ADAPTIVE",
    "KIND_CAMPAIGN",
    "KIND_SWEEP",
    "KINDS",
    "STORE_PATH_ENV_VAR",
    "ResultStore",
    "resolve_store_path",
]
