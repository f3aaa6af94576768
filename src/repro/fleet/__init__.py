"""Fleet-scale streaming simulation: constant-memory online aggregation.

Three layers (see ``docs/fleet.md``):

* :mod:`repro.fleet.agg` — exactly mergeable online aggregators
  (rational-sum Welford moments, log2 histograms on the
  :mod:`repro.obs` bucket map, a deterministic log-bucket quantile
  sketch, min/max and tallies);
* :mod:`repro.fleet.population` — the lazy, deterministic catalog ×
  temperature-cycle × workload-mix population;
* :mod:`repro.fleet.runner` — the sharded streaming runner with sqlite
  shard checkpoints (``kind="fleet"``) and exact resume, plus the
  materialize-everything oracle it is differentially tested against.

The package deliberately never imports :mod:`repro.core` (whose package
``__init__`` pulls ``scipy.special``, about 26 MB of RSS and 0.3 s of
import time on top of numpy): fleet workers stay small enough that a
10k-module run fits in <100 MB of RSS.
"""

from repro.fleet.agg import (
    Log2Histogram,
    MinMax,
    Moments,
    QuantileSketch,
    Tally,
)
from repro.fleet.population import (
    DEFAULT_PROTOCOLS,
    REGIONS,
    WORKLOADS,
    FleetSpec,
    ModuleAssignment,
    assignment,
    device_pool,
    iter_assignments,
)
from repro.fleet.runner import (
    STANDARD_MARGINS,
    FleetInterrupted,
    FleetResult,
    run_fleet,
    run_fleet_naive,
    shard_key,
    shard_plan,
    simulate_module,
    simulate_module_oracle,
)
from repro.fleet.stats import (
    FleetAggregator,
    ModuleStats,
    module_stats,
    secded_escape_probability,
)

__all__ = [
    "Moments",
    "MinMax",
    "Tally",
    "Log2Histogram",
    "QuantileSketch",
    "DEFAULT_PROTOCOLS",
    "REGIONS",
    "WORKLOADS",
    "FleetSpec",
    "ModuleAssignment",
    "assignment",
    "device_pool",
    "iter_assignments",
    "FleetAggregator",
    "ModuleStats",
    "module_stats",
    "secded_escape_probability",
    "STANDARD_MARGINS",
    "FleetInterrupted",
    "FleetResult",
    "run_fleet",
    "run_fleet_naive",
    "shard_key",
    "shard_plan",
    "simulate_module",
    "simulate_module_oracle",
]
