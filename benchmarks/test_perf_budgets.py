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

Each budget is a median of ``PAIRS`` ratios: every pair times the off
and the on route back to back, alternating which runs first, so a slow
phase of a shared host lands on both sides of a ratio instead of on one
side of a best-of. Each test prints the ratios' spread. Run with
``python -m pytest benchmarks/test_perf_budgets.py -q -s``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

MAX_TRACE_OVERHEAD = float(os.environ.get("VRD_BENCH_OBS_MAX_OVERHEAD", 1.25))
MAX_CHECK_OVERHEAD = float(
    os.environ.get("VRD_BENCH_PROTOCOL_MAX_OVERHEAD", 1.3)
)
PAIRS = 7


def _paired_overhead(label: str, off, on):
    """Median ``on / off`` time ratio over :data:`PAIRS` interleaved
    pairs, and the last pair's ``(off, on)`` results."""
    ratios, results = [], [None, None]
    for pair in range(PAIRS):
        seconds = [0.0, 0.0]
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            results[side] = (off, on)[side]()
            seconds[side] = time.perf_counter() - t0
        ratios.append(seconds[1] / seconds[0])
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"\n{label}: median {median:.3f}x over {PAIRS} pairs, "
          f"quartiles {q1:.3f}-{q3:.3f}x, range {min(ratios):.3f}-"
          f"{max(ratios):.3f}x")
    return statistics.median(ratios), results


def test_traced_sweep_overhead():
    from repro import obs
    from repro.memsim.sweep import SweepSpec, run_sweep

    spec = SweepSpec(n_mixes=2, window_ns=30_000.0)
    assert not obs.enabled()

    def traced():
        with obs.tracing():
            return run_sweep(spec)

    overhead, (untraced_result, traced_result) = _paired_overhead(
        "traced sweep", lambda: run_sweep(spec), traced
    )
    assert traced_result.per_mix == untraced_result.per_mix
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
    overhead, (unchecked, checked) = _paired_overhead(
        "timing checker",
        lambda: _checker_series(False, sweep),
        lambda: _checker_series(True, sweep),
    )
    np.testing.assert_array_equal(checked, unchecked)
    assert overhead <= MAX_CHECK_OVERHEAD
