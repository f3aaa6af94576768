"""Durable, shared result store for campaign/adaptive/sweep payloads.

One sqlite database (WAL mode, pragma-tuned, busy-timeout retried) holds
every cached result the reproduction produces, content-addressed by the
recipe keys of :class:`~repro.core.engine.CampaignCache` and
:class:`~repro.memsim.sweep.SweepCache`, with a ``kind`` column
discriminating campaign, adaptive and sweep payloads. Concurrent
processes share the database without aliasing or corruption.
:class:`~repro.store.db.ResultStore` is the store itself: checksummed
payloads, batched multi-row writes inside one transaction, corrupt
entries (bad checksum, torn page, tampered payload) detected, counted,
evicted, and recomputed — never served.

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
