"""The sharded, streaming fleet runner.

Memory is O(aggregator state), not O(modules): the population is cut
into contiguous index shards (layout fixed by ``spec.shard_size``, never
by the worker count), each worker reconstructs its shard's assignments
lazily from the spec, folds every module into a local
:class:`~repro.fleet.stats.FleetAggregator`, and ships only the folded
state. The parent merges shard states in ascending index order — but the
merge is associative *and* commutative, so completion order, shard order
and worker count cannot change a single output bit.

Checkpointing piggybacks on the shared sqlite store: every finished
shard's aggregator payload lands under ``kind="fleet"``, keyed by the
spec digest and the shard range. A killed run resumes by loading the
shards already present and computing only the rest; because resumed
payloads are byte-identical to freshly computed ones, the resumed run's
output is bit-identical to an uninterrupted run.

Import discipline: this module (and everything it pulls into worker
processes) must stay off the :mod:`repro.core` package — its ``__init__``
imports ``scipy.special``, which costs about 26 MB of RSS and 0.3 s of
import time per worker on top of numpy, a quarter of the fleet's <100 MB
budget. The worker-count resolution below therefore restates
:func:`repro.core.engine.resolve_jobs` (same ``$VRD_JOBS`` contract)
instead of importing it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.chips import build_module
from repro.dram.faults import Condition
from repro.errors import ConfigurationError
from repro.fleet.population import (
    DEFAULT_PROTOCOLS,
    FleetSpec,
    ModuleAssignment,
    iter_assignments,
)
from repro.fleet.stats import FleetAggregator, ModuleStats, module_stats
from repro.store.db import KIND_FLEET, ResultStore

__all__ = [
    "FleetInterrupted",
    "FleetResult",
    "run_fleet",
    "run_fleet_naive",
    "shard_plan",
    "shard_key",
    "simulate_module",
    "simulate_module_oracle",
]

#: Same contract as :data:`repro.core.engine.JOBS_ENV_VAR`.
JOBS_ENV_VAR = "VRD_JOBS"

#: Checkpoint payload format version.
CHECKPOINT_FORMAT = 1


class FleetInterrupted(RuntimeError):
    """Raised by the ``fail_after_shards`` test hook: the run died after
    checkpointing that many shards (a deterministic stand-in for a
    kill signal; CI also exercises a real ``kill -9``)."""


def _resolve_jobs(n_jobs: Optional[int]) -> int:
    """Worker count: explicit value, else ``$VRD_JOBS``, else 1."""
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
# Per-module simulation (worker side)
# ----------------------------------------------------------------------

def _condition_for(assignment: ModuleAssignment, spec: FleetSpec, timing):
    """The module's test condition at its diurnal operating point; the
    aggressor on-time floors at the device's ``tRAS`` exactly like
    :meth:`repro.core.config.TestConfig.condition` (restated here to keep
    scipy out of the worker import graph)."""
    return Condition(
        pattern=spec.pattern,
        t_agg_on=timing.tRAS,
        temperature=assignment.temperature_c,
    )


def simulate_module(
    assignment: ModuleAssignment, spec: FleetSpec
) -> ModuleStats:
    """One fleet member through the packed bulk fast path.

    The module is built, measured, and *discarded* — no per-process
    module cache (a 10k-module fleet has 10k distinct seeds; caching
    would grow worker memory linearly with modules seen).
    """
    module = build_module(assignment.device, seed=assignment.module_seed)
    module.disable_interference_sources()
    condition = _condition_for(assignment, spec, module.timing)
    series = module.fault_model.latent_series_bank(
        0, list(assignment.rows), condition, spec.n_measurements
    )
    return module_stats(assignment, spec, series)


def simulate_module_oracle(
    assignment: ModuleAssignment, spec: FleetSpec
) -> Tuple[ModuleStats, np.ndarray]:
    """The scalar reference: per-row ``RowVrdProcess.latent_series``
    loop, returning the materialized series matrix alongside the stats.
    Bit-identical to :func:`simulate_module` (the fastfaults contract)."""
    module = build_module(assignment.device, seed=assignment.module_seed)
    module.disable_interference_sources()
    condition = _condition_for(assignment, spec, module.timing)
    series = np.stack([
        module.fault_model.process(0, row).latent_series(
            condition, spec.n_measurements
        )
        for row in assignment.rows
    ])
    return module_stats(assignment, spec, series), series


def _fold_range(spec: FleetSpec, start: int, stop: int) -> FleetAggregator:
    aggregator = FleetAggregator()
    for assignment in iter_assignments(spec, start, stop):
        aggregator.update(simulate_module(assignment, spec))
    return aggregator


def _fleet_worker(args) -> Tuple[int, dict, Optional[dict]]:
    """Fold one shard inside a worker process.

    ``args`` is ``(spec_payload, start, stop, trace)``; returns the shard
    start index, the folded aggregator payload, and — when tracing — an
    :mod:`repro.obs` snapshot for the parent to merge (the same
    cross-process metric path the campaign engine workers use).
    """
    spec_payload, start, stop, trace = args
    spec = FleetSpec.from_payload(spec_payload)
    if trace:
        with obs.tracing() as recorder:
            with recorder.span("fleet.worker"):
                aggregator = _fold_range(spec, start, stop)
            recorder.counter_add("fleet.worker_modules", stop - start)
            return start, aggregator.to_payload(), recorder.snapshot()
    return start, _fold_range(spec, start, stop).to_payload(), None


# ----------------------------------------------------------------------
# Shard layout and checkpoints
# ----------------------------------------------------------------------

def shard_plan(spec: FleetSpec) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` shards — a pure function of the spec
    (worker count never reshapes the layout, so checkpoints written at
    one ``n_jobs`` resume cleanly at any other)."""
    return [
        (start, min(start + spec.shard_size, spec.n_modules))
        for start in range(0, spec.n_modules, spec.shard_size)
    ]


def shard_key(spec: FleetSpec, start: int, stop: int) -> str:
    """Store key of one shard checkpoint under ``kind="fleet"``.

    Non-default protocol sets carry a readable protocol tag, so a DDR5
    run and a default run of the same shape can never alias — and
    ``store prune``/``store stats`` can attribute entries by protocol
    without decoding payloads. Default specs keep the historical
    untagged key, preserving every existing checkpoint.
    """
    if spec.protocols != DEFAULT_PROTOCOLS:
        tag = "+".join(p.lower() for p in spec.protocols)
        return f"fleet:{tag}:{spec.digest()}:{start}:{stop}"
    return f"fleet:{spec.digest()}:{start}:{stop}"


def _checkpoint_payload(
    spec: FleetSpec, start: int, stop: int, agg_payload: dict
) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "spec": spec.to_payload(),
        "shard": [start, stop],
        "agg": agg_payload,
    }


def _load_checkpoint(
    store: ResultStore, spec: FleetSpec, start: int, stop: int
) -> Optional[dict]:
    payload = store.get(shard_key(spec, start, stop), KIND_FLEET)
    if payload is None:
        return None
    if (
        payload.get("format") != CHECKPOINT_FORMAT
        or payload.get("shard") != [start, stop]
        or payload.get("spec") != spec.to_payload()
    ):
        return None
    return payload["agg"]


# ----------------------------------------------------------------------
# The streaming runner
# ----------------------------------------------------------------------

@dataclass
class FleetResult:
    """One fleet run: the spec, its bit-deterministic summary, and how
    the shards were satisfied."""

    spec: FleetSpec
    summary: dict
    n_shards: int
    computed_shards: int
    resumed_shards: int
    elapsed_s: float = 0.0
    margins: Dict[float, float] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "spec": self.spec.to_payload(),
            "summary": self.summary,
            "n_shards": self.n_shards,
            "computed_shards": self.computed_shards,
            "resumed_shards": self.resumed_shards,
            "margins": {f"{m:g}": v for m, v in sorted(self.margins.items())},
        }


#: Guardband margins reported by default — the fleet-level analogue of
#: :data:`repro.core.guardband.STANDARD_MARGINS`.
STANDARD_MARGINS = (0.10, 0.20, 0.30, 0.40, 0.50)


def _resolve_store(
    store: "ResultStore | Path | str | None", checkpoint: bool
) -> Optional[ResultStore]:
    if not checkpoint:
        return None
    if store is None:
        return ResultStore.resolve()
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def run_fleet(
    spec: FleetSpec,
    n_jobs: Optional[int] = None,
    store: "ResultStore | Path | str | None" = None,
    checkpoint: bool = True,
    fail_after_shards: Optional[int] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> FleetResult:
    """Stream the whole fleet through the sharded worker pool.

    Args:
        spec: The fleet recipe (population, measurement plan, margin).
        n_jobs: Worker processes (``$VRD_JOBS``, else 1). Results are
            bit-identical for any value.
        store: Checkpoint store — a :class:`ResultStore`, a database
            path, or ``None`` to resolve via the environment precedence
            (``$VRD_STORE_PATH`` → ``.vrd-cache/``).
        checkpoint: Disable to run without any store traffic.
        fail_after_shards: Test hook — raise :class:`FleetInterrupted`
            after checkpointing that many freshly computed shards.
        progress: Optional callback receiving one dict per finished
            shard (``{"shard", "shards", "source", "modules"}``).
    """
    n_jobs = _resolve_jobs(n_jobs)
    result_store = _resolve_store(store, checkpoint)
    shards = shard_plan(spec)
    recorder = obs.active()
    started = time.perf_counter()

    with recorder.span("fleet.run"):
        payloads: Dict[int, dict] = {}
        resumed = 0
        if result_store is not None:
            for start, stop in shards:
                cached = _load_checkpoint(result_store, spec, start, stop)
                if cached is not None:
                    payloads[start] = cached
                    resumed += 1
        recorder.counter_add("fleet.shards.resumed", resumed)

        pending = [
            (start, stop) for start, stop in shards if start not in payloads
        ]
        emitted = resumed
        if progress is not None:
            for (start, stop) in shards:
                if start in payloads:
                    progress({
                        "shard": [start, stop], "shards": len(shards),
                        "source": "resumed", "modules": stop - start,
                    })

        computed = 0

        def retire(start: int, stop: int, payload: dict, shard_s: float):
            nonlocal computed, emitted
            payloads[start] = payload
            computed += 1
            emitted += 1
            recorder.counter_add("fleet.shards.computed")
            recorder.histogram_observe("fleet.shard_ms", shard_s * 1000.0)
            if result_store is not None:
                result_store.put(
                    shard_key(spec, start, stop), KIND_FLEET,
                    _checkpoint_payload(spec, start, stop, payload),
                )
                recorder.counter_add("fleet.checkpoints")
            if progress is not None:
                progress({
                    "shard": [start, stop], "shards": len(shards),
                    "source": "computed", "modules": stop - start,
                })
            if fail_after_shards is not None and computed >= fail_after_shards:
                raise FleetInterrupted(
                    f"fleet run interrupted after {computed} computed "
                    f"shard(s) ({emitted}/{len(shards)} checkpointed)"
                )

        trace = obs.enabled()
        if pending and n_jobs == 1:
            for start, stop in pending:
                shard_t0 = time.perf_counter()
                _, payload, snapshot = _fleet_worker(
                    (spec.to_payload(), start, stop, trace)
                )
                recorder.merge_snapshot(snapshot)
                retire(start, stop, payload, time.perf_counter() - shard_t0)
        elif pending:
            spec_payload = spec.to_payload()
            with ProcessPoolExecutor(
                max_workers=min(n_jobs, len(pending))
            ) as pool:
                try:
                    futures = {}
                    for start, stop in pending:
                        future = pool.submit(
                            _fleet_worker,
                            (spec_payload, start, stop, trace),
                        )
                        futures[future] = (start, stop, time.perf_counter())
                    remaining = set(futures)
                    while remaining:
                        done, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            start, stop, shard_t0 = futures[future]
                            _, payload, snapshot = future.result()
                            recorder.merge_snapshot(snapshot)
                            retire(
                                start, stop, payload,
                                time.perf_counter() - shard_t0,
                            )
                except FleetInterrupted:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise

        # Deterministic reduction: ascending shard order. (The merge is
        # commutative, so this is belt-and-braces, not a requirement.)
        fleet = FleetAggregator()
        for start, _stop in shards:
            fleet.merge(FleetAggregator.from_payload(payloads[start]))

        recorder.counter_add("fleet.modules", spec.n_modules)
        summary = fleet.finalize()
        margins = {
            margin: fleet.margin_failure_rate(margin)
            for margin in STANDARD_MARGINS
        }

    return FleetResult(
        spec=spec,
        summary=summary,
        n_shards=len(shards),
        computed_shards=computed,
        resumed_shards=resumed,
        elapsed_s=time.perf_counter() - started,
        margins=margins,
    )


def run_fleet_naive(spec: FleetSpec) -> FleetResult:
    """The materialize-everything oracle: every module's full series
    matrix is built through the scalar per-row reference path and held in
    one list, then folded sequentially. O(modules) memory — only viable
    on small populations, which is exactly its job: the differential
    harness asserts :func:`run_fleet` matches it bit for bit.
    """
    started = time.perf_counter()
    materialized = [
        (assignment, simulate_module_oracle(assignment, spec))
        for assignment in iter_assignments(spec)
    ]
    fleet = FleetAggregator()
    for _assignment, (stats, _series) in materialized:
        fleet.update(stats)
    summary = fleet.finalize()
    margins = {
        margin: fleet.margin_failure_rate(margin)
        for margin in STANDARD_MARGINS
    }
    return FleetResult(
        spec=spec,
        summary=summary,
        n_shards=1,
        computed_shards=1,
        resumed_shards=0,
        elapsed_s=time.perf_counter() - started,
        margins=margins,
    )
