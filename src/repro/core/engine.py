"""The on-disk campaign result cache.

:class:`CampaignCache` stores finished campaigns content-addressed in the
shared sqlite result store (:mod:`repro.store` — ``VRD_STORE_PATH``,
default ``.vrd-cache/results.sqlite``), so repeated benchmark/CLI
sessions — and concurrent processes — reload instead of recomputing.
:func:`repro.analysis.figures.module_campaign` keys a whole campaign,
row selection included, before any work runs; a hit skips it.

Every stochastic quantity in a campaign flows from per-(module, row,
condition) streams derived via :func:`repro.rng`, so a stored result is
exactly what a recomputation returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.core.campaign import CampaignResult
from repro.core.config import TestConfig
from repro.core.store import (
    campaign_from_dict,
    campaign_to_dict,
    config_to_dict,
)
from repro.errors import ConfigurationError
from repro.store.db import (
    DEFAULT_STORE_FILENAME,
    KIND_CAMPAIGN,
    ResultStore,
    encode_payload,
    payload_checksum,
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
        protocol: Optional[str] = None,
    ) -> str:
        """Hex digest addressing one campaign's full recipe.

        ``pairs`` names measured rows explicitly; drivers that *derive*
        rows (e.g. the selection protocol) pass the selection parameters
        through ``extra`` instead, so the key is known before selection
        runs — selection dominates campaign cost, and a cache hit must
        skip it too.

        The payload's ``"schedule": "exhaustive"`` and ``"adaptive": None``
        entries are constants, kept so that campaigns stored before the
        adaptive schedule was removed keep their keys.

        ``protocol`` names the device's DRAM protocol (``"DDR4"``,
        ``"DDR5"``, ``"HBM2"``) so same-shaped campaigns on different
        protocols never alias; ``None`` omits it from the payload,
        leaving every pre-existing key unchanged.
        """
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
            "schedule": "exhaustive",
            "adaptive": None,
        }
        if protocol is not None:
            payload["protocol"] = str(protocol)
        return payload_checksum(encode_payload(payload))

    def load(self, key: str) -> Optional[CampaignResult]:
        """The cached campaign for ``key``, or ``None`` (see
        :meth:`ResultStore.load <repro.store.db.ResultStore.load>`)."""
        return self.result_store.load(key, KIND_CAMPAIGN, campaign_from_dict)

    def store(self, key: str, result: CampaignResult) -> None:
        """Persist a campaign under ``key`` (one store transaction)."""
        self.result_store.save(key, KIND_CAMPAIGN, campaign_to_dict(result))
