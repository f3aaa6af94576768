"""Fleet-runner perf baseline: streaming shard-merge vs naive sequential.

Two claims, one record (``BENCH_fleet.json`` at the repo root):

* **speedup** — the streamed runner (:func:`repro.fleet.run_fleet`, 8
  workers) against the naive route a fleet study would otherwise take:
  every module simulated sequentially through the scalar device clock
  (``begin_measurement`` + ``current_threshold`` per measurement — the
  same pre-fast-path route ``BENCH_faults.json`` baselines) with every
  series matrix materialized before any statistics. The naive route is
  timed on ``VRD_BENCH_FLEET_NAIVE_MODULES`` modules and extrapolated to
  the full fleet, exactly like the faults benchmark extrapolates its
  stepping route to the full bank.
* **rss_10k_mb** — peak RSS of a fresh process streaming a
  ``VRD_BENCH_FLEET_RSS_MODULES``-module fleet (default 10k): memory is
  O(aggregator state), not O(modules), so the whole run stays under
  ``VRD_BENCH_FLEET_RSS_LIMIT_MB`` (default 100).

The timing baseline uses a different RNG stream family than the fast
path (sequential device clock vs latent series), so — as in the faults
benchmark — it is never equality-checked; bit-identity is asserted
separately against :func:`repro.fleet.run_fleet_naive`, the
materialize-everything oracle the differential harness also sweeps.

Scale knobs: ``VRD_BENCH_FLEET_MODULES`` (fleet size, default 64),
``VRD_BENCH_FLEET_NAIVE_MODULES`` (naive-route modules, default 4),
``VRD_BENCH_FLEET_MEASUREMENTS`` (series length, default 1000 — the
paper's campaign count), ``VRD_BENCH_FLEET_JOBS`` (default 8),
``VRD_BENCH_FLEET_REPS`` (default 1),
``VRD_BENCH_FLEET_MIN_SPEEDUP`` (default 8),
``VRD_BENCH_FLEET_RSS_MODULES`` (default 10000; 0 skips the RSS leg),
``VRD_BENCH_FLEET_RSS_LIMIT_MB`` (default 100).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.chips import build_module
from repro.dram.faults import Condition
from repro.fleet import (
    FleetSpec,
    iter_assignments,
    run_fleet,
    run_fleet_naive,
)
from repro.fleet.stats import FleetAggregator, module_stats

N_MODULES = int(os.environ.get("VRD_BENCH_FLEET_MODULES", 64))
NAIVE_MODULES = min(
    N_MODULES, int(os.environ.get("VRD_BENCH_FLEET_NAIVE_MODULES", 4))
)
N_MEASUREMENTS = int(os.environ.get("VRD_BENCH_FLEET_MEASUREMENTS", 1000))
JOBS = int(os.environ.get("VRD_BENCH_FLEET_JOBS", 8))
REPS = int(os.environ.get("VRD_BENCH_FLEET_REPS", 1))
MIN_SPEEDUP = float(os.environ.get("VRD_BENCH_FLEET_MIN_SPEEDUP", 8.0))
RSS_MODULES = int(os.environ.get("VRD_BENCH_FLEET_RSS_MODULES", 10_000))
RSS_LIMIT_MB = float(os.environ.get("VRD_BENCH_FLEET_RSS_LIMIT_MB", 100.0))

SEED = 1337

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def _spec(n_modules: int) -> FleetSpec:
    return FleetSpec(
        n_modules=n_modules,
        seed=SEED,
        rows_per_module=6,
        n_measurements=N_MEASUREMENTS,
        shard_size=8,
    )


def _naive_sequential(spec: FleetSpec) -> FleetAggregator:
    """The pre-fleet route: scalar device clock, everything materialized."""
    matrices = []
    for member in iter_assignments(spec):
        module = build_module(member.device, seed=member.module_seed)
        module.disable_interference_sources()
        condition = Condition(
            pattern=spec.pattern,
            t_agg_on=module.timing.tRAS,
            temperature=member.temperature_c,
        )
        series = np.empty((len(member.rows), spec.n_measurements))
        for index, row in enumerate(member.rows):
            process = module.fault_model.process(0, row)
            for measurement in range(spec.n_measurements):
                process.begin_measurement(condition)
                series[index, measurement] = process.current_threshold(
                    condition
                )
        matrices.append((member, series))
    fleet = FleetAggregator()
    for member, series in matrices:
        fleet.update(module_stats(member, spec, series))
    return fleet


def _best_of(route):
    best, result = None, None
    for _ in range(max(1, REPS)):
        t0 = time.perf_counter()
        result = route()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _measure_rss_mb() -> float:
    """Peak RSS (MB) of a fresh interpreter streaming the big fleet.

    The probe reads ``VmHWM`` from ``/proc/self/status``, not
    ``ru_maxrss``: the rusage high-water mark survives ``fork``/exec, so
    a child spawned from a large parent (this pytest process) would
    inherit the parent's peak and report it as its own. ``VmHWM`` lives
    on the ``mm`` replaced at exec, so it reflects only the probe.
    """
    code = (
        "import json, resource\n"
        "from repro.fleet import FleetSpec, run_fleet\n"
        "spec = FleetSpec(n_modules=%d, seed=%d, rows_per_module=6,\n"
        "                 n_measurements=48, shard_size=512)\n"
        "run_fleet(spec, n_jobs=1, checkpoint=False)\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    with open('/proc/self/status') as handle:\n"
        "        for line in handle:\n"
        "            if line.startswith('VmHWM:'):\n"
        "                peak = int(line.split()[1])\n"
        "except OSError:\n"
        "    pass\n"
        "print(json.dumps({'peak_kb': peak}))\n"
        % (RSS_MODULES, SEED)
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, VRD_STORE_PATH=""),
    )
    peak_kb = json.loads(out.stdout.strip().splitlines()[-1])["peak_kb"]
    return peak_kb / 1024.0  # both VmHWM and Linux ru_maxrss are in KB


def test_fleet_streaming_speedup_and_rss():
    fleet_spec = _spec(N_MODULES)
    naive_spec = _spec(NAIVE_MODULES)

    naive_subset_s, naive_agg = _best_of(
        lambda: _naive_sequential(naive_spec)
    )
    naive_fleet_s = naive_subset_s * (N_MODULES / NAIVE_MODULES)
    streamed_s, streamed = _best_of(
        lambda: run_fleet(fleet_spec, n_jobs=JOBS, checkpoint=False)
    )

    # Streamed output must be bit-identical to the materialize-everything
    # oracle (small population; the harness sweeps more seeds).
    oracle = run_fleet_naive(naive_spec)
    small = run_fleet(naive_spec, n_jobs=2, checkpoint=False)
    assert json.dumps(small.summary, sort_keys=True) == json.dumps(
        oracle.summary, sort_keys=True
    )
    assert small.margins == oracle.margins
    assert naive_agg.modules.count == NAIVE_MODULES
    assert streamed.summary["modules"] == N_MODULES

    record = {
        "modules": N_MODULES,
        "naive_modules": NAIVE_MODULES,
        "rows_per_module": 6,
        "measurements": N_MEASUREMENTS,
        "jobs": JOBS,
        "reps": REPS,
        "naive_subset_s": round(naive_subset_s, 4),
        "naive_fleet_s": round(naive_fleet_s, 4),
        "streamed_s": round(streamed_s, 4),
        "speedup": round(naive_fleet_s / streamed_s, 2),
        "oracle_bit_identical": True,
    }
    if RSS_MODULES > 0:
        rss_mb = _measure_rss_mb()
        record["rss_modules"] = RSS_MODULES
        record["rss_10k_mb"] = round(rss_mb, 1)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nfleet perf: {json.dumps(record)}")

    assert record["speedup"] >= MIN_SPEEDUP
    if RSS_MODULES > 0:
        assert record["rss_10k_mb"] < RSS_LIMIT_MB
