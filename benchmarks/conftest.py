"""Shared, cached experiment drivers for the per-figure benchmarks.

Benchmarks print the same rows/series the paper's figures and tables
report. Scale knobs default to values that complete in minutes on a laptop
and can be widened with environment variables:

* ``VRD_BENCH_MEASUREMENTS`` — series length (paper: 1000; default 1000);
* ``VRD_BENCH_FOUNDATIONAL`` — foundational series length (paper: 100000;
  default 100000);
* ``VRD_BENCH_ROWS`` — rows per block in campaigns (paper: 50; default 5);
* ``VRD_BENCH_MIXES`` — four-core workload mixes for Fig. 14 (paper: 15;
  default 5).

Campaigns additionally go through the on-disk result cache
(:class:`repro.core.engine.CampaignCache`): re-running a benchmark session
with unchanged knobs reloads each campaign from the result store at
``$VRD_STORE_PATH`` (default ``.vrd-cache/results.sqlite``) instead of
recomputing it. Set ``VRD_STORE_PATH=`` (empty) to disable.
"""

from __future__ import annotations

import os
from functools import lru_cache

import pytest

from repro.analysis.figures import foundational_victim_series, module_campaign
from repro.chips import spec
from repro.core.config import STANDARD_TEMPERATURES, standard_t_agg_on_values
from repro.core.engine import CampaignCache


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


N_MEASUREMENTS = _env_int("VRD_BENCH_MEASUREMENTS", 1000)
N_FOUNDATIONAL = _env_int("VRD_BENCH_FOUNDATIONAL", 100_000)
ROWS_PER_BLOCK = _env_int("VRD_BENCH_ROWS", 5)
N_MIXES = _env_int("VRD_BENCH_MIXES", 5)

#: Shared on-disk campaign cache (None when disabled via VRD_STORE_PATH="").
CAMPAIGN_CACHE = CampaignCache.resolve()

#: Modules carried through the campaign-based figures (one per vendor plus
#: density/revision contrast pairs and one HBM2 chip).
CAMPAIGN_MODULES = ("H1", "H2", "M0", "M1", "M4", "S0", "S3", "Chip0")


@lru_cache(maxsize=None)
def foundational_series(module_id: str):
    """Cached Sec. 4 series (one victim row, N_FOUNDATIONAL measurements)."""
    return foundational_victim_series(module_id, N_FOUNDATIONAL)


@lru_cache(maxsize=None)
def reference_campaign(module_id: str):
    """Cached single-condition-axis campaign: 4 patterns at tRAS, 50 C."""
    return module_campaign(
        module_id,
        rows_per_block=ROWS_PER_BLOCK,
        n_measurements=N_MEASUREMENTS,
        cache=CAMPAIGN_CACHE,
    )


@lru_cache(maxsize=None)
def taggon_campaign(module_id: str):
    """Campaign sweeping the three standard tAggOn values (Fig. 11)."""
    timing = spec(module_id).timing
    return module_campaign(
        module_id,
        rows_per_block=ROWS_PER_BLOCK,
        n_measurements=N_MEASUREMENTS,
        t_agg_on_values=standard_t_agg_on_values(timing),
        cache=CAMPAIGN_CACHE,
    )


@lru_cache(maxsize=None)
def temperature_campaign(module_id: str):
    """Campaign sweeping the three temperatures (Fig. 12)."""
    return module_campaign(
        module_id,
        rows_per_block=ROWS_PER_BLOCK,
        n_measurements=N_MEASUREMENTS,
        temperatures=STANDARD_TEMPERATURES,
        cache=CAMPAIGN_CACHE,
    )


@pytest.fixture(scope="session")
def campaign_modules():
    return CAMPAIGN_MODULES
