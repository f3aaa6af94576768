"""Parallel campaign execution with an on-disk result cache.

:class:`~repro.core.campaign.Campaign` runs the paper's Sec. 5 protocol as
a nested serial loop. This module scales the same protocol out:

* :class:`CampaignEngine` shards (bank, row) x configuration work units
  across a ``ProcessPoolExecutor``. Workers rebuild the module from
  ``(module_id, seed)`` — modules are cheap to construct and fully
  determined by their seed — measure their shard, and return partial
  :class:`~repro.core.campaign.CampaignResult` objects that are stitched
  back together with the existing ``merge``.
* :class:`CampaignCache` stores finished campaigns content-addressed in
  the shared sqlite result store (:mod:`repro.store` — ``VRD_STORE_PATH``,
  default ``.vrd-cache/results.sqlite``), so repeated benchmark/CLI
  sessions — and concurrent processes — reload instead of recomputing.

**Determinism contract.** Every stochastic quantity in a campaign flows
from per-(module, row, condition) streams derived via :func:`repro.rng`
— no draw depends on measurement order. The engine therefore produces
results bit-identical to the serial loop for any worker count and any
shard order; after merging it reorders observations into the serial
(configuration-major) order so even the observation list matches exactly.
``tests/core/test_engine.py`` asserts this contract directly.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveDriver,
    AdaptiveResult,
    measure_requests,
)
from repro.core.campaign import CampaignResult, RowObservation
from repro.core.config import TestConfig
from repro.core.rdt import FastRdtMeter
from repro.core.store import (
    campaign_from_dict,
    campaign_to_dict,
    config_to_dict,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.rng import DEFAULT_SEED
from repro.store.db import (
    DEFAULT_STORE_FILENAME,
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    ResultStore,
)

#: Measurement schedules the engine can execute.
SCHEDULES = ("exhaustive", "adaptive")

#: Environment variable consulted when a job count is not given explicitly.
JOBS_ENV_VAR = "VRD_JOBS"

#: Version of the cache-key recipe. It moves with the payload format
#: (:data:`repro.core.store.FORMAT_VERSION`), so entries written in an
#: older format are never looked up and read as plain misses.
RECIPE_FORMAT = 3


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Worker count to use: explicit value, else ``VRD_JOBS``, else 1."""
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError as error:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from error
    if n_jobs < 1:
        raise ConfigurationError(f"job count must be >= 1, got {n_jobs}")
    return n_jobs


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process module cache: workers serve every shard of a campaign (and
#: campaigns over the same device) from one rebuilt module.
_WORKER_MODULES: Dict[Tuple[str, int, bool], object] = {}


def _worker_module(module_id: str, seed: int, disable_interference: bool):
    from repro.chips import build_module

    key = (module_id, seed, disable_interference)
    module = _WORKER_MODULES.get(key)
    if module is None:
        module = build_module(module_id, seed=seed)
        if disable_interference:
            module.disable_interference_sources()
        _WORKER_MODULES[key] = module
    return module


def _measure_units(args) -> Tuple[List[int], CampaignResult, Optional[dict]]:
    """Measure one shard of work units; runs inside a worker process.

    ``args`` is ``(module_id, seed, disable_interference, n_measurements,
    units, trace)`` with ``units`` a list of ``(unit_index, bank, row,
    config)``. Returns the unit indices that produced observations (skipped
    never-flipping sweeps are omitted, like the serial loop) alongside the
    partial result, so the parent can restore serial ordering, plus — when
    ``trace`` asks for it — an :mod:`repro.obs` snapshot of the shard's
    metrics for the parent to merge (``None`` otherwise; tracing never
    touches the seeded RNG streams, so results are unchanged either way).
    """
    module_id, seed, disable_interference, n_measurements, units, trace = args
    if trace:
        with obs.tracing() as recorder:
            with recorder.span("engine.worker"):
                indices, partial = _measure_units_body(
                    module_id, seed, disable_interference, n_measurements, units
                )
            recorder.counter_add("engine.worker_units", len(units))
            return indices, partial, recorder.snapshot()
    indices, partial = _measure_units_body(
        module_id, seed, disable_interference, n_measurements, units
    )
    return indices, partial, None


def _adaptive_measure_units(args):
    """Serve one shard of adaptive measurement requests in a worker.

    ``args`` is ``(module_id, seed, disable_interference, requests,
    trace)`` with ``requests`` a list of
    :data:`repro.core.adaptive.MeasureRequest` tuples. Replies are keyed,
    so the parent driver ingests shards in any arrival order; per-row
    values are independent of sharding (the fastfaults contract), which
    keeps adaptive runs bit-identical across worker counts.
    """
    module_id, seed, disable_interference, requests, trace = args
    module = _worker_module(module_id, seed, disable_interference)
    if trace:
        with obs.tracing() as recorder:
            with recorder.span("engine.adaptive_worker"):
                replies = measure_requests(module, requests)
            recorder.counter_add("engine.worker_units", len(requests))
            return replies, recorder.snapshot()
    return measure_requests(module, requests), None


def _measure_units_body(
    module_id, seed, disable_interference, n_measurements, units
) -> Tuple[List[int], CampaignResult]:
    module = _worker_module(module_id, seed, disable_interference)
    meters: Dict[int, FastRdtMeter] = {}
    indices: List[int] = []
    partial = CampaignResult(module_id=module_id)
    # Consecutive units sharing (bank, config) — the whole shard, in the
    # common config-major single-bank layout — measure as one batch
    # through the packed device fast path; bit-identical to the per-unit
    # guess + measure loop.
    n_units = len(units)
    start = 0
    while start < n_units:
        _, bank, _, config = units[start]
        stop = start + 1
        while (
            stop < n_units
            and units[stop][1] == bank
            and units[stop][3] == config
        ):
            stop += 1
        group = units[start:stop]
        module.set_temperature(config.temperature_c)
        meter = meters.get(bank)
        if meter is None:
            meter = FastRdtMeter(module, bank)
            meters[bank] = meter
        series_list = meter.measure_series_batch(
            [row for _, _, row, _ in group], config, n_measurements
        )
        for (unit_index, _, row, _), series in zip(group, series_list):
            if series.n_failed_sweeps == len(series):
                # Never flipped inside the sweep; the serial loop records
                # nothing for such (row, configuration) pairs either.
                continue
            indices.append(unit_index)
            partial.observations.append(
                RowObservation(
                    module_id=module_id,
                    bank=bank,
                    row=row,
                    config=config,
                    series=series,
                )
            )
        start = stop
    return indices, partial


# ----------------------------------------------------------------------
# Work planning and stitching
# ----------------------------------------------------------------------


def plan_units(
    configs: Sequence[TestConfig], pairs: Sequence["tuple[int, int]"]
) -> List[tuple]:
    """The campaign's work units in serial (configuration-major) order.

    Each unit is ``(unit_index, bank, row, config)``; ``unit_index`` is
    the observation's position in the serial loop's result, which is what
    lets arbitrarily sharded partials stitch back into the exact serial
    ordering.
    """
    return [
        (config_index * len(pairs) + pair_index, bank, row, config)
        for config_index, config in enumerate(configs)
        for pair_index, (bank, row) in enumerate(pairs)
    ]


def shard_units(units: Sequence, n_shards: int) -> List[list]:
    """Deal units round-robin into at most ``n_shards`` non-empty shards."""
    shards = [list(units[start::n_shards]) for start in range(n_shards)]
    return [shard for shard in shards if shard]


def assemble_partials(
    partials: Sequence[Tuple[List[int], CampaignResult]],
) -> CampaignResult:
    """Stitch worker partials back into the serial loop's exact result.

    Uses the existing ``merge`` (which validates shard disjointness),
    then restores the serial observation order via the unit indices each
    worker reported. Shard arrival order does not matter.
    """
    index_of: Dict[Tuple[int, int, TestConfig], int] = {}
    for indices, partial in partials:
        for unit_index, observation in zip(indices, partial.observations):
            index_of[
                (observation.bank, observation.row, observation.config)
            ] = unit_index
    result = partials[0][1]
    for _, partial in partials[1:]:
        result = result.merge(partial)
    result.observations.sort(
        key=lambda observation: index_of[
            (observation.bank, observation.row, observation.config)
        ]
    )
    return result


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class CampaignEngine:
    """Sharded, optionally cached execution of one module's campaign.

    Args:
        module_id: Catalog device id; workers rebuild the module from this
            and ``seed``, so only picklable primitives cross the process
            boundary.
        configs: The test-configuration grid (order defines result order).
        n_measurements: Series length per (row, configuration).
        bank: Default bank for :meth:`run`.
        seed: Module root seed.
        n_jobs: Worker count; ``None`` resolves via ``VRD_JOBS`` (default
            1). One job runs inline without a pool.
        cache: Optional :class:`CampaignCache`; hits skip measurement
            entirely.
        disable_interference: Rebuild worker modules with refresh/ECC
            interference disabled (the standard campaign drivers do).
        schedule: ``"exhaustive"`` (the Sec. 5 fixed-length protocol) or
            ``"adaptive"`` (DiscoRD-style early stopping;
            :mod:`repro.core.adaptive`). Adaptive runs return
            :class:`~repro.core.adaptive.AdaptiveResult` from
            :meth:`run`/:meth:`run_pairs`.
        adaptive: Stopping/budget knobs for the adaptive schedule;
            defaults to ``AdaptiveConfig(max_measurements=n_measurements)``
            so the per-row ceiling matches the exhaustive series length it
            replaces. Rejected for exhaustive runs.
    """

    def __init__(
        self,
        module_id: str,
        configs: Sequence[TestConfig],
        n_measurements: int = 1000,
        bank: int = 0,
        seed: int = DEFAULT_SEED,
        n_jobs: Optional[int] = None,
        cache: "Optional[CampaignCache]" = None,
        disable_interference: bool = True,
        schedule: str = "exhaustive",
        adaptive: Optional[AdaptiveConfig] = None,
    ):
        if n_measurements < 2:
            raise MeasurementError("campaigns need at least 2 measurements")
        if schedule not in SCHEDULES:
            raise ConfigurationError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
            )
        if adaptive is not None and schedule != "adaptive":
            raise ConfigurationError(
                "adaptive config requires schedule='adaptive'"
            )
        self.module_id = module_id
        self.configs = list(configs)
        if not self.configs:
            raise MeasurementError("campaign needs at least one configuration")
        self.n_measurements = n_measurements
        self.bank = bank
        self.seed = seed
        self.n_jobs = resolve_jobs(n_jobs)
        self.cache = cache
        self.disable_interference = disable_interference
        self.schedule = schedule
        if schedule == "adaptive" and adaptive is None:
            adaptive = AdaptiveConfig(max_measurements=n_measurements)
        self.adaptive = adaptive

    def run(self, rows: Iterable[int]):
        """Measure every (row, configuration) pair on the default bank."""
        return self.run_pairs((self.bank, row) for row in rows)

    def run_pairs(self, pairs: Iterable["tuple[int, int]"]):
        """Measure every ((bank, row), configuration) pair.

        Bit-identical to :meth:`Campaign.run_pairs
        <repro.core.campaign.Campaign.run_pairs>` on a freshly built module
        for any ``n_jobs`` (exhaustive schedule), and to
        :meth:`AdaptiveScheduler.run_pairs
        <repro.core.adaptive.AdaptiveScheduler.run_pairs>` (adaptive
        schedule — returns :class:`~repro.core.adaptive.AdaptiveResult`).
        """
        if self.schedule == "adaptive":
            return self._run_adaptive_pairs(pairs)
        recorder = obs.active()
        with recorder.span("engine.run_pairs"):
            pairs = [(int(bank), int(row)) for bank, row in pairs]
            if not pairs:
                raise MeasurementError("campaign needs at least one row")
            if len(set(pairs)) != len(pairs):
                raise MeasurementError(
                    "duplicate (bank, row) pairs in campaign"
                )

            cache_key = None
            if self.cache is not None:
                cache_key = self.cache.key(
                    seed=self.seed,
                    module_id=self.module_id,
                    configs=self.configs,
                    n_measurements=self.n_measurements,
                    pairs=pairs,
                    protocol=protocol_of(self.module_id),
                )
                cached = self.cache.load(cache_key)
                if cached is not None:
                    return cached

            # Serial order: configuration-major, pairs in the given order.
            units = plan_units(self.configs, pairs)
            recorder.counter_add("engine.units", len(units))
            recorder.gauge_set("engine.jobs", self.n_jobs)
            partials = self._execute(units)

            if recorder.enabled:
                observed = sum(len(indices) for indices, _, _ in partials)
                for _, _, snapshot in partials:
                    if snapshot is not None:
                        worker_span = snapshot["spans"].get("engine.worker")
                        if worker_span is not None:
                            recorder.histogram_observe(
                                "engine.worker_wall_ns",
                                worker_span["wall_ns"],
                            )
                    recorder.merge_snapshot(snapshot)
                recorder.counter_add("engine.shards", len(partials))
                recorder.counter_add("engine.observations", observed)
                recorder.counter_add(
                    "engine.skipped_units", len(units) - observed
                )
            result = assemble_partials(
                [(indices, partial) for indices, partial, _ in partials]
            )

            if self.cache is not None and cache_key is not None:
                self.cache.store(cache_key, result)
            return result

    def _run_adaptive_pairs(
        self, pairs: Iterable["tuple[int, int]"]
    ) -> AdaptiveResult:
        """Adaptive schedule: the driver plans rounds centrally; workers
        only execute keyed measurement requests, so budget state
        round-trips through the parent between rounds and the result is
        bit-identical to the serial :class:`AdaptiveScheduler` at any
        worker count."""
        recorder = obs.active()
        with recorder.span("engine.adaptive_run_pairs"):
            pairs = [(int(bank), int(row)) for bank, row in pairs]

            cache_key = None
            if self.cache is not None:
                cache_key = self.cache.key(
                    seed=self.seed,
                    module_id=self.module_id,
                    configs=self.configs,
                    n_measurements=self.n_measurements,
                    pairs=pairs,
                    schedule="adaptive",
                    adaptive=self.adaptive,
                    protocol=protocol_of(self.module_id),
                )
                cached = self.cache.load_adaptive(cache_key)
                if cached is not None:
                    return cached

            driver = AdaptiveDriver(
                self.module_id, pairs, self.configs, self.adaptive
            )
            recorder.gauge_set("engine.jobs", self.n_jobs)
            pool = None
            try:
                while True:
                    requests = driver.next_requests()
                    if not requests:
                        break
                    if self.n_jobs == 1 or len(requests) == 1:
                        shards = [requests]
                        outputs = [
                            _adaptive_measure_units(
                                self._adaptive_worker_args(requests)
                            )
                        ]
                    else:
                        shards = shard_units(requests, self.n_jobs)
                        if pool is None:
                            # One pool for the whole run: workers keep
                            # their rebuilt module across rounds.
                            pool = ProcessPoolExecutor(
                                max_workers=self.n_jobs
                            )
                        outputs = list(
                            pool.map(
                                _adaptive_measure_units,
                                [
                                    self._adaptive_worker_args(shard)
                                    for shard in shards
                                ],
                            )
                        )
                    replies = []
                    for shard_replies, snapshot in outputs:
                        replies.extend(shard_replies)
                        if recorder.enabled:
                            recorder.merge_snapshot(snapshot)
                    driver.ingest(replies)
                    if recorder.enabled:
                        recorder.counter_add(
                            "engine.adaptive_rounds"
                        )
                        recorder.counter_add(
                            "engine.shards", len(shards)
                        )
            finally:
                if pool is not None:
                    pool.shutdown()
            result = driver.finish()

            if self.cache is not None and cache_key is not None:
                self.cache.store_adaptive(cache_key, result)
            return result

    def _adaptive_worker_args(self, requests):
        return (
            self.module_id,
            self.seed,
            self.disable_interference,
            requests,
            obs.enabled(),
        )

    def _execute(
        self, units
    ) -> List[Tuple[List[int], CampaignResult, Optional[dict]]]:
        if self.n_jobs == 1 or len(units) == 1:
            return [_measure_units(self._worker_args(units))]
        shards = shard_units(units, self.n_jobs)
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            return list(
                pool.map(
                    _measure_units,
                    [self._worker_args(shard) for shard in shards],
                )
            )

    def _worker_args(self, units):
        return (
            self.module_id,
            self.seed,
            self.disable_interference,
            self.n_measurements,
            units,
            obs.enabled(),
        )


# ----------------------------------------------------------------------
# Shared result store (campaign/adaptive cache shim)
# ----------------------------------------------------------------------


def protocol_of(module_id: str) -> Optional[str]:
    """The catalog device's DRAM protocol, or ``None`` for ids outside
    the catalog (ad-hoc test modules key protocol-neutrally)."""
    from repro.chips.catalog import spec
    from repro.errors import ReproError

    try:
        return spec(module_id).protocol
    except ReproError:
        return None


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
