"""The on-disk campaign result cache.

:class:`CampaignCache` stores finished campaigns content-addressed in the
shared sqlite result store (:mod:`repro.store` — ``VRD_STORE_PATH``,
default ``.vrd-cache/results.sqlite``), so repeated benchmark/CLI
sessions — and concurrent processes — reload instead of recomputing.
:func:`repro.analysis.figures.module_campaign` and
:func:`~repro.analysis.figures.adaptive_module_campaign` key a whole
campaign, row selection included, before any work runs; a hit skips it.

Every stochastic quantity in a campaign flows from per-(module, row,
condition) streams derived via :func:`repro.rng`, so a stored result is
exactly what a recomputation returns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.core.adaptive import AdaptiveConfig, AdaptiveResult
from repro.core.campaign import CampaignResult
from repro.core.config import TestConfig
from repro.core.store import (
    campaign_from_dict,
    campaign_to_dict,
    config_to_dict,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.store.db import (
    DEFAULT_STORE_FILENAME,
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    ResultStore,
)

#: Version of the cache-key recipe. It moves with the payload format
#: (:data:`repro.core.store.FORMAT_VERSION`), so entries written in an
#: older format are never looked up and read as plain misses.
RECIPE_FORMAT = 3


class CampaignCache:
    """Content-addressed campaign cache over the shared sqlite store.

    Keys hash the complete recomputation recipe — root seed, module id,
    configuration grid, row list (or a driver-supplied selection recipe),
    and series length — so any parameter change is a clean miss. Values
    are :mod:`repro.core.store` JSON payloads (format 2: each series a
    base64 float64 column, so a hit decodes buffers, not float lists) in
    one :class:`~repro.store.db.ResultStore` (WAL sqlite) that any number
    of processes share concurrently. The recipe carries
    :data:`RECIPE_FORMAT`, so entries written in an older payload format
    are never looked up: they read as plain misses and recompute. A
    corrupted entry (bad checksum, tampered payload, torn database page,
    or an unknown format version under a current key) is detected on
    load, counted under the ``cache.corrupt`` metric, *evicted*, and
    treated as a miss so the campaign recomputes cleanly —
    ``tests/core/test_engine.py`` and ``tests/store/`` corrupt entries on
    disk to prove it.
    """

    #: Exceptions that mark a decoded payload as corrupt (structurally
    #: mangled: wrong types, missing keys, bad version) even though its
    #: checksum matched — possible via tampering or version skew.
    _CORRUPT_ERRORS = (
        MeasurementError,
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
    )

    def __init__(
        self,
        root: "Path | str | None" = None,
        *,
        store: Optional[ResultStore] = None,
    ):
        if (root is None) == (store is None):
            raise ConfigurationError(
                "pass exactly one of a cache directory or a ResultStore"
            )
        if store is None:
            store = ResultStore(Path(root) / DEFAULT_STORE_FILENAME)
        self.result_store = store
        self.root = store.path.parent

    @classmethod
    def resolve(
        cls, cache_dir: "Path | str | None" = None
    ) -> "Optional[CampaignCache]":
        """Cache under ``cache_dir``, else at ``$VRD_STORE_PATH``, else
        under ``.vrd-cache/``. An empty ``VRD_STORE_PATH`` disables
        caching (returns ``None``)."""
        store = ResultStore.resolve(cache_dir)
        return None if store is None else cls(store=store)

    def key(
        self,
        *,
        seed: int,
        module_id: str,
        configs: Sequence[TestConfig],
        n_measurements: int,
        pairs: Optional[Sequence["tuple[int, int]"]] = None,
        extra: Optional[dict] = None,
        schedule: str = "exhaustive",
        adaptive: Optional[AdaptiveConfig] = None,
        protocol: Optional[str] = None,
    ) -> str:
        """Hex digest addressing one campaign's full recipe.

        ``pairs`` names measured rows explicitly; drivers that *derive*
        rows (e.g. the selection protocol) pass the selection parameters
        through ``extra`` instead, so the key is known before selection
        runs — selection dominates campaign cost, and a cache hit must
        skip it too.

        The measurement schedule and its full parameterization (budget,
        confidence, precision, grid-refinement ceiling) are part of the
        recipe: an adaptive run and an exhaustive run over the same rows
        measure different things and must never alias to one entry.

        ``protocol`` names the device's DRAM protocol (``"DDR4"``,
        ``"DDR5"``, ``"HBM2"``) so same-shaped campaigns on different
        protocols never alias; ``None`` omits it from the payload,
        leaving every pre-existing key unchanged.
        """
        if adaptive is not None and schedule != "adaptive":
            raise ConfigurationError(
                "adaptive cache-key parameters require schedule='adaptive'"
            )
        payload = {
            "format": RECIPE_FORMAT,
            "seed": int(seed),
            "module_id": module_id,
            "configs": [config_to_dict(config) for config in configs],
            "n_measurements": int(n_measurements),
            "pairs": (
                None if pairs is None
                else [[int(bank), int(row)] for bank, row in pairs]
            ),
            "extra": extra,
            "schedule": schedule,
            "adaptive": None if adaptive is None else adaptive.to_dict(),
        }
        if protocol is not None:
            payload["protocol"] = str(protocol)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()

    def has(self, key: str) -> bool:
        """Whether an entry (of any kind) exists under ``key``."""
        return self.result_store.has(key)

    def entry_count(self) -> int:
        """Total entries in the backing store (all kinds)."""
        return self.result_store.entry_count()

    def load(self, key: str) -> Optional[CampaignResult]:
        """The cached campaign for ``key``, or ``None`` on a miss.

        Corrupt entries are counted (``cache.corrupt``), evicted, and
        reported as misses; plain misses and hits are counted too. An
        entry of the wrong kind under the key is corrupt, not a hit.
        """
        recorder = obs.active()
        payload, status = self.result_store.fetch(key, KIND_CAMPAIGN)
        if status == "corrupt":
            recorder.counter_add("cache.corrupt")
            return None
        if payload is None:
            recorder.counter_add("cache.miss")
            return None
        try:
            result = campaign_from_dict(payload)
        except self._CORRUPT_ERRORS:
            recorder.counter_add("cache.corrupt")
            self.evict(key)
            return None
        recorder.counter_add("cache.hit")
        return result

    def evict(self, key: str) -> None:
        """Remove one entry from the store (no-op if already gone)."""
        self.result_store.evict(key)

    def store(self, key: str, result: CampaignResult) -> None:
        """Persist a campaign under ``key`` (one store transaction)."""
        self.result_store.put(key, KIND_CAMPAIGN, campaign_to_dict(result))
        obs.active().counter_add("cache.store")

    def load_adaptive(self, key: str) -> Optional[AdaptiveResult]:
        """The cached adaptive run for ``key``, or ``None`` on a miss.

        Same corrupt-entry contract as :meth:`load`; an exhaustive
        campaign payload under the key is treated as corrupt (the ``kind``
        discriminator rejects it) — with schedule-aware keys that can only
        happen through tampering or a key collision.
        """
        recorder = obs.active()
        payload, status = self.result_store.fetch(key, KIND_ADAPTIVE)
        if status == "corrupt":
            recorder.counter_add("cache.corrupt")
            return None
        if payload is None:
            recorder.counter_add("cache.miss")
            return None
        try:
            result = AdaptiveResult.from_payload(payload)
        except self._CORRUPT_ERRORS:
            recorder.counter_add("cache.corrupt")
            self.evict(key)
            return None
        recorder.counter_add("cache.hit")
        return result

    def store_adaptive(self, key: str, result: AdaptiveResult) -> None:
        """Persist an adaptive run under ``key`` (like :meth:`store`)."""
        self.result_store.put(key, KIND_ADAPTIVE, result.to_payload())
        obs.active().counter_add("cache.store")
