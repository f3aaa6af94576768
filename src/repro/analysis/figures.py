"""Shared experiment drivers for the per-figure benchmarks.

These helpers encapsulate the experiment protocols (victim selection, series
measurement, campaigns) so that each benchmark module only declares its
figure-specific parameters and rendering. All drivers run on the fast
measurement path; the DRAM Bender path is exercised by the integration test
suite and the examples.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.chips import ModuleSpec, build_module, spec
from repro.core import FastRdtMeter, RdtSeries, TestConfig
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveResult,
    AdaptiveScheduler,
)
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import standard_configs
from repro.core.engine import CampaignCache
from repro.core.patterns import ALL_PATTERNS, CHECKERED0
from repro.dram.module import DramModule
from repro.errors import MeasurementError
from repro.rng import DEFAULT_SEED


def _reference_config(module: DramModule) -> TestConfig:
    return TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)


def victim_threshold_for(device: ModuleSpec) -> float:
    """Algorithm 1's vulnerability cutoff, adapted per device.

    The paper uses 40 000; HBM2 chips whose minimum observed RDT exceeds
    that need a proportionally higher cutoff.
    """
    return max(40_000.0, 1.8 * device.min_rdt_tras)


#: Victim scans :func:`_victim_probe` keeps per process; the figure suite
#: scans 14 foundational devices at one seed.
_VICTIM_PROBE_MEMO = 64


@functools.lru_cache(maxsize=_VICTIM_PROBE_MEMO)
def _victim_probe(
    module_id: str, seed: int, candidate_rows: int
) -> Tuple[float, int]:
    """The lowest ``(guess, row)`` pair of one batched probe over the first
    ``candidate_rows`` rows of bank 0, memoized per catalog identity.

    Only the pair is kept: the probe leaves its throwaway module untouched,
    and a cached module would share per-row chain state between callers.
    """
    module = build_module(spec(module_id), seed=seed)
    module.disable_interference_sources()
    meter = FastRdtMeter(module, bank=0)
    rows = range(candidate_rows)
    guesses = meter.guess_rdt_batch(rows, _reference_config(module))
    return min(zip(guesses.tolist(), rows))


def foundational_victim(
    module_id: str,
    seed: int = DEFAULT_SEED,
    candidate_rows: int = 512,
):
    """Select the Sec. 4 victim row of a device.

    Algorithm 1's find_victim accepts any row under the vulnerability
    threshold; per the paper's footnote the tested row is "relatively more
    read-disturbance-vulnerable", so scan a candidate block and take the
    most vulnerable qualifying row: the lowest ``(guess, row)`` pair of one
    batched probe (bit-identical to per-row ``guess_rdt``), which qualifies
    iff any row does. The scan runs once per ``(module_id, seed,
    candidate_rows)`` in a process; every call still returns a fresh
    module.

    Returns:
        ``(module, victim_row, config)``.

    Raises:
        MeasurementError: When ``candidate_rows`` is outside ``[1, n_rows]``
            or no candidate's mean RDT is below the device's vulnerability
            threshold.
    """
    device = spec(module_id)
    module = build_module(device, seed=seed)
    module.disable_interference_sources()
    n_rows = module.geometry.n_rows
    if not 1 <= candidate_rows <= n_rows:
        raise MeasurementError(
            f"{candidate_rows} candidate rows outside [1, {n_rows}]"
        )
    misses = _victim_probe.cache_info().misses
    guess, victim = _victim_probe(module_id, seed, candidate_rows)
    outcome = "miss" if _victim_probe.cache_info().misses > misses else "hit"
    obs.active().counter_add(f"figures.victim_probe.{outcome}")
    threshold = victim_threshold_for(device)
    if not guess < threshold:
        raise MeasurementError(
            f"no row among {candidate_rows} candidates has mean RDT below "
            f"{threshold}"
        )
    return module, victim, _reference_config(module)


def foundational_victim_series(
    module_id: str,
    n_measurements: int,
    seed: int = DEFAULT_SEED,
    candidate_rows: int = 512,
) -> RdtSeries:
    """Sec. 4's foundational experiment for one device.

    Finds a vulnerable victim row (Algorithm 1's find_victim) and measures
    its RDT ``n_measurements`` times under the reference condition.
    """
    module, victim, config = foundational_victim(module_id, seed, candidate_rows)
    meter = FastRdtMeter(module, bank=0)
    return meter.measure_series(victim, config, n_measurements)


def foundational_latent_series(
    module_id: str,
    n_measurements: int,
    seed: int = DEFAULT_SEED,
    candidate_rows: int = 512,
):
    """The victim row's latent (pre-quantization) threshold series.

    The measurement grid quantizes these values (see
    :class:`~repro.core.rdt.HammerSweep`); the latent series is the right
    object for distribution-shape questions like Sec. 4.1's normality
    analysis, where grid quantization would otherwise dominate the
    statistics.
    """
    module, victim, config = foundational_victim(module_id, seed, candidate_rows)
    mapping = module.bank(0).mapping
    process = module.fault_model.process(0, mapping.to_physical(victim))
    return process.latent_series(
        config.condition(module.timing), n_measurements
    )


def select_test_rows(
    module: DramModule,
    per_block: int,
    block_rows: int = 256,
    config: Optional[TestConfig] = None,
) -> List[int]:
    """Scaled-down version of the paper's 150-row selection protocol."""
    from repro.core.campaign import select_vulnerable_rows

    return select_vulnerable_rows(
        module,
        config or _reference_config(module),
        block_rows=block_rows,
        per_block=per_block,
    )


def module_campaign(
    module_id: str,
    rows_per_block: int = 10,
    n_measurements: int = 1000,
    patterns=ALL_PATTERNS,
    temperatures: Sequence[float] = (50.0,),
    t_agg_on_values: Optional[Sequence[float]] = None,
    seed: int = DEFAULT_SEED,
    cache: Union[CampaignCache, str, Path, None] = None,
    select_block_rows: int = 256,
) -> CampaignResult:
    """Run a Sec. 5-style campaign on one catalog device.

    Defaults are scaled down from the paper's 150 rows x 36 configurations
    to keep benchmark runtimes reasonable; every axis is widenable.

    ``cache`` (a :class:`~repro.core.engine.CampaignCache` or a directory
    path) short-circuits the whole campaign — including row selection,
    which dominates its cost — when an identical recipe was stored before.
    """
    recorder = obs.active()
    with recorder.span("figures.module_campaign"):
        return _module_campaign(
            module_id, rows_per_block, n_measurements, patterns,
            temperatures, t_agg_on_values, seed, cache, select_block_rows,
        )


def _module_campaign(
    module_id, rows_per_block, n_measurements, patterns, temperatures,
    t_agg_on_values, seed, cache, select_block_rows,
) -> CampaignResult:
    device = spec(module_id)
    module = build_module(device, seed=seed)
    module.disable_interference_sources()
    configs = list(
        standard_configs(
            module.timing,
            patterns=patterns,
            temperatures=temperatures,
            t_agg_on_values=(
                t_agg_on_values
                if t_agg_on_values is not None
                else (module.timing.tRAS,)
            ),
        )
    )
    if isinstance(cache, (str, Path)):
        cache = CampaignCache(cache)
    cache_key = None
    if cache is not None:
        cache_key = cache.key(
            seed=seed,
            module_id=module_id,
            configs=configs,
            n_measurements=n_measurements,
            extra={
                "driver": "module_campaign",
                "rows_per_block": rows_per_block,
                "block_rows": select_block_rows,
            },
            protocol=device.protocol,
        )
        cached = cache.load(cache_key)
        if cached is not None:
            return cached
    rows = select_test_rows(
        module, per_block=rows_per_block, block_rows=select_block_rows
    )
    campaign = Campaign(module, configs, n_measurements=n_measurements)
    result = campaign.run(rows)
    if cache is not None and cache_key is not None:
        cache.store(cache_key, result)
    return result


def adaptive_module_campaign(
    module_id: str,
    rows_per_block: int = 10,
    n_measurements: int = 1000,
    patterns=ALL_PATTERNS,
    temperatures: Sequence[float] = (50.0,),
    t_agg_on_values: Optional[Sequence[float]] = None,
    seed: int = DEFAULT_SEED,
    cache: Union[CampaignCache, str, Path, None] = None,
    select_block_rows: int = 256,
    adaptive: Optional[AdaptiveConfig] = None,
) -> AdaptiveResult:
    """:func:`module_campaign` under the adaptive schedule.

    Same device/row-selection/configuration recipe, but measurement runs
    through :mod:`repro.core.adaptive` — coarse-to-fine search plus
    sequential early stopping — and returns an
    :class:`~repro.core.adaptive.AdaptiveResult` (per-row threshold
    estimates with confidence intervals and trials accounting) instead of
    full series. ``n_measurements`` caps the per-row measurement count
    (the exhaustive series length it replaces). Cache entries are keyed by
    the full adaptive parameterization and can never alias an exhaustive
    campaign's entry.
    """
    recorder = obs.active()
    with recorder.span("figures.adaptive_module_campaign"):
        device = spec(module_id)
        module = build_module(device, seed=seed)
        module.disable_interference_sources()
        configs = list(
            standard_configs(
                module.timing,
                patterns=patterns,
                temperatures=temperatures,
                t_agg_on_values=(
                    t_agg_on_values
                    if t_agg_on_values is not None
                    else (module.timing.tRAS,)
                ),
            )
        )
        if adaptive is None:
            adaptive = AdaptiveConfig(max_measurements=n_measurements)
        if isinstance(cache, (str, Path)):
            cache = CampaignCache(cache)
        cache_key = None
        if cache is not None:
            cache_key = cache.key(
                seed=seed,
                module_id=module_id,
                configs=configs,
                n_measurements=n_measurements,
                extra={
                    "driver": "module_campaign",
                    "rows_per_block": rows_per_block,
                    "block_rows": select_block_rows,
                },
                schedule="adaptive",
                adaptive=adaptive,
                protocol=device.protocol,
            )
            cached = cache.load_adaptive(cache_key)
            if cached is not None:
                return cached
        rows = select_test_rows(
            module, per_block=rows_per_block, block_rows=select_block_rows
        )
        result = AdaptiveScheduler(module, configs, adaptive).run(rows)
        if cache is not None and cache_key is not None:
            cache.store_adaptive(cache_key, result)
        return result


def campaigns_for(
    module_ids: Sequence[str],
    **kwargs,
) -> Dict[str, CampaignResult]:
    """Campaigns over several devices (Figs. 9-12 aggregations)."""
    return {
        module_id: module_campaign(module_id, **kwargs)
        for module_id in module_ids
    }


#: One representative catalog device per protocol. Cross-protocol figure
#: sweeps and the CI protocol-smoke job run the campaign suite on these:
#: a DDR4 DIMM, a projected DDR5 device, and an HBM2 stack whose compact
#: build exercises the pseudo-channel geometry end-to-end.
PROTOCOL_REPRESENTATIVES: Dict[str, str] = {
    "DDR4": "M1",
    "DDR5": "D0",
    "HBM2": "Chip0",
}


def cross_protocol_campaigns(
    protocols: Sequence[str] = ("DDR4", "DDR5", "HBM2"),
    **kwargs,
) -> Dict[str, CampaignResult]:
    """:func:`module_campaign` on one representative device per protocol.

    Returns ``{protocol: CampaignResult}``. Any :func:`module_campaign`
    keyword applies to every protocol's run; cache entries never collide
    across protocols (the key carries both module id and protocol).
    """
    from repro.errors import ConfigurationError

    for protocol in protocols:
        if protocol not in PROTOCOL_REPRESENTATIVES:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from "
                f"{sorted(PROTOCOL_REPRESENTATIVES)}"
            )
    return {
        protocol: module_campaign(
            PROTOCOL_REPRESENTATIVES[protocol], **kwargs
        )
        for protocol in protocols
    }

