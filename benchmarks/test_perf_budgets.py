"""Absolute cost budgets of shipped features.

Each test times one feature against its own off switch or a fixed
ceiling; none compares against an in-repo straw man, and none writes a
file. The paper-reproduction cost itself is measured by ``bench/run.py``
(workloads and bounds in ``BENCHMARK.json``); bit-identity of every fast
path lives in ``tests/differential``.

* **traced sweep** — a Fig. 14 sweep under :func:`repro.obs.tracing`
  stays within ``VRD_BENCH_OBS_MAX_OVERHEAD`` (default 1.25x) of the
  untraced run.
* **timing checker** — a compiled Bender series with
  ``VRD_TIMING_CHECK=1`` stays within ``VRD_BENCH_PROTOCOL_MAX_OVERHEAD``
  (default 1.3x) of the unchecked series.
* **fleet memory** — a fresh process streaming a 10k-module fleet peaks
  below 100 MB of RSS.
* **warm resubmit** — a campaign job already in the result store is
  answered by the service in under ``VRD_BENCH_STORE_MAX_WARM_MS``
  (default 10 ms).

Every timing is the best of three runs. Run with
``python -m pytest benchmarks/test_perf_budgets.py -q -s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

MAX_TRACE_OVERHEAD = float(os.environ.get("VRD_BENCH_OBS_MAX_OVERHEAD", 1.25))
MAX_CHECK_OVERHEAD = float(
    os.environ.get("VRD_BENCH_PROTOCOL_MAX_OVERHEAD", 1.3)
)
MAX_WARM_MS = float(os.environ.get("VRD_BENCH_STORE_MAX_WARM_MS", 10.0))
MAX_FLEET_RSS_MB = 100.0
FLEET_MODULES = 10_000
REPS = 3


def _best_of(route):
    best, result = None, None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = route()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_traced_sweep_overhead():
    from repro import obs
    from repro.memsim.sweep import SweepSpec, run_sweep

    spec = SweepSpec(n_mixes=2, engine="fast", window_ns=30_000.0)
    assert not obs.enabled()

    def traced():
        with obs.tracing():
            return run_sweep(spec)

    untraced_s, untraced_result = _best_of(lambda: run_sweep(spec))
    traced_s, traced_result = _best_of(traced)
    assert traced_result.per_mix == untraced_result.per_mix
    overhead = traced_s / untraced_s
    print(f"\ntraced sweep: {untraced_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced, {overhead:.3f}x")
    assert overhead <= MAX_TRACE_OVERHEAD


def _checker_series(checked: bool, sweep) -> np.ndarray:
    from repro.bender.host import DramBender
    from repro.core.rdt import RdtMeter
    from repro.dram.checker import TIMING_CHECK_ENV_VAR

    previous = os.environ.get(TIMING_CHECK_ENV_VAR)
    os.environ[TIMING_CHECK_ENV_VAR] = "1" if checked else "0"
    try:
        module, config = _checker_module()
        meter = RdtMeter(DramBender(module, init_radius=16), 0, compiled=True)
        return meter.measure_series(200, config, 100, sweep=sweep).values
    finally:
        if previous is None:
            del os.environ[TIMING_CHECK_ENV_VAR]
        else:
            os.environ[TIMING_CHECK_ENV_VAR] = previous


def _checker_module():
    from repro.core.config import TestConfig
    from repro.core.patterns import CHECKERED0
    from repro.dram.faults import VrdModelParams
    from repro.dram.geometry import DramGeometry
    from repro.dram.module import DramModule

    geometry = DramGeometry(
        n_banks=2, n_rows=1024, row_bits_per_chip=1024, n_chips=8
    )
    module = DramModule(
        "BENCH", geometry=geometry,
        vrd_params=VrdModelParams(mean_rdt=2000.0), seed=1234,
    )
    module.disable_interference_sources()
    return module, TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)


def test_timing_checker_overhead():
    from repro.core.rdt import FastRdtMeter, HammerSweep

    module, config = _checker_module()
    sweep = HammerSweep.from_guess(
        FastRdtMeter(module, 0).guess_rdt(200, config)
    )
    unchecked_s, unchecked = _best_of(lambda: _checker_series(False, sweep))
    checked_s, checked = _best_of(lambda: _checker_series(True, sweep))
    np.testing.assert_array_equal(checked, unchecked)
    overhead = checked_s / unchecked_s
    print(f"\ntiming checker: {unchecked_s:.3f} s unchecked, "
          f"{checked_s:.3f} s checked, {overhead:.3f}x")
    assert overhead <= MAX_CHECK_OVERHEAD


def test_fleet_streaming_peak_rss():
    """Peak RSS of a fresh interpreter streaming a 10k-module fleet.

    The probe reads ``VmHWM`` from ``/proc/self/status``, not
    ``ru_maxrss``: the rusage high-water mark survives ``fork``/exec, so a
    child spawned from this pytest process would report the parent's peak
    as its own. ``VmHWM`` belongs to the address space replaced at exec.
    """
    code = (
        "import json, resource\n"
        "from repro.fleet import FleetSpec, run_fleet\n"
        "spec = FleetSpec(n_modules=%d, seed=1337, rows_per_module=6,\n"
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
        % FLEET_MODULES
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, VRD_STORE_PATH=""),
    )
    peak_kb = json.loads(out.stdout.strip().splitlines()[-1])["peak_kb"]
    rss_mb = peak_kb / 1024.0  # VmHWM and Linux ru_maxrss are in KB
    print(f"\nfleet of {FLEET_MODULES} modules: peak RSS {rss_mb:.1f} MB")
    assert rss_mb < MAX_FLEET_RSS_MB


def test_warm_resubmit_latency(tmp_path):
    from repro.core import CHECKERED0, TestConfig
    from repro.core.store import config_to_dict
    from repro.service import ServiceThread
    from repro.store import DEFAULT_STORE_FILENAME, ResultStore

    job = {
        "kind": "campaign",
        "module_id": "M1",
        "seed": 101,
        "pairs": [[0, row] for row in range(3, 43)],
        "configs": [config_to_dict(TestConfig(CHECKERED0, t_agg_on_ns=35.0))],
        "n_measurements": 400,
    }
    store = ResultStore(tmp_path / DEFAULT_STORE_FILENAME)
    with ServiceThread(store=store) as service:
        with service.client() as client:
            assert client.submit(job)["status"] == "computed"
            warm_s, warm = _best_of(lambda: client.submit(job))
    assert warm["status"] == "hit"
    warm_ms = warm_s * 1000.0
    print(f"\nwarm resubmit: {warm_ms:.2f} ms")
    assert warm_ms < MAX_WARM_MS
