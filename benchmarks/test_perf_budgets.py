"""Absolute cost budgets of shipped features.

Each test times one feature against its own off switch or a fixed
ceiling; none compares against an in-repo straw man, and none writes a
file. The paper-reproduction cost itself is measured by ``bench/run.py``
(workloads and bounds in ``BENCHMARK.json``); bit-identity of every fast
path lives in ``tests/differential``.

* **traced sweep** — a Fig. 14 sweep under :func:`repro.obs.tracing`
  stays within ``VRD_BENCH_OBS_MAX_OVERHEAD`` (default 1.25x) of the
  untraced run.
* **timing checker** — a Bender series with
  ``VRD_TIMING_CHECK=1`` stays within ``VRD_BENCH_PROTOCOL_MAX_OVERHEAD``
  (default 1.3x) of the unchecked series.

Every timing is the best of three runs. Run with
``python -m pytest benchmarks/test_perf_budgets.py -q -s``.
"""

from __future__ import annotations

import os
import time

import numpy as np

MAX_TRACE_OVERHEAD = float(os.environ.get("VRD_BENCH_OBS_MAX_OVERHEAD", 1.25))
MAX_CHECK_OVERHEAD = float(
    os.environ.get("VRD_BENCH_PROTOCOL_MAX_OVERHEAD", 1.3)
)
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

    spec = SweepSpec(n_mixes=2, window_ns=30_000.0)
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
        meter = RdtMeter(DramBender(module, init_radius=16), 0)
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

