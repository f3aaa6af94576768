"""Bender perf baseline: compiled trial replay.

Times a full :meth:`RdtMeter.measure_series` (Algorithm 1, every trial
executed on the simulated testbed) on a victim with a ``2 * RADIUS``-row
initialized neighborhood, scalar interpreter vs the
:mod:`repro.bender.compiler` replay (``RdtMeter(compiled=True)``). Both
routes share one sweep (from the device-model guess) so the series must be
bit-identical, NaNs included.

Results land in ``BENCH_bender.json`` at the repo root.

Scale knobs: ``VRD_BENCH_BENDER_RADIUS`` (neighborhood radius, default 32
— a 64-row blast neighborhood), ``VRD_BENCH_BENDER_MEASUREMENTS`` (series
length, default 100), ``VRD_BENCH_BENDER_REPS`` (timing repetitions,
default 1), ``VRD_BENCH_BENDER_MIN_SPEEDUP`` (asserted compiled-series
speedup, default 5).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bender.host import DramBender
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.core.rdt import FastRdtMeter, HammerSweep, RdtMeter
from repro.dram.faults import VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule

RADIUS = int(os.environ.get("VRD_BENCH_BENDER_RADIUS", 32))
N_MEASUREMENTS = int(os.environ.get("VRD_BENCH_BENDER_MEASUREMENTS", 100))
REPS = int(os.environ.get("VRD_BENCH_BENDER_REPS", 1))
MIN_SPEEDUP = float(os.environ.get("VRD_BENCH_BENDER_MIN_SPEEDUP", 5.0))

SEED = 1234
BANK = 0
VICTIM = 200

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_bender.json"


def _module() -> DramModule:
    geometry = DramGeometry(
        n_banks=2, n_rows=1024, row_bits_per_chip=1024, n_chips=8
    )
    module = DramModule(
        "BENCH",
        geometry=geometry,
        vrd_params=VrdModelParams(mean_rdt=2000.0),
        seed=SEED,
    )
    module.disable_interference_sources()
    return module


def _config(module: DramModule) -> TestConfig:
    return TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)


def _shared_sweep() -> HammerSweep:
    module = _module()
    guess = FastRdtMeter(module, BANK).guess_rdt(VICTIM, _config(module))
    return HammerSweep.from_guess(guess)


SWEEP = _shared_sweep()


def _series_route(compiled: bool) -> np.ndarray:
    module = _module()
    bender = DramBender(module, init_radius=RADIUS)
    meter = RdtMeter(bender, BANK, compiled=compiled)
    series = meter.measure_series(
        VICTIM, _config(module), N_MEASUREMENTS, sweep=SWEEP
    )
    return series.values


def _best_of(route):
    best, result = None, None
    for _ in range(max(1, REPS)):
        t0 = time.perf_counter()
        result = route()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_bender_compiled_speedup():
    scalar_series_s, scalar_series = _best_of(lambda: _series_route(False))
    compiled_series_s, compiled_series = _best_of(lambda: _series_route(True))
    # Bit-identical measurement series (assert_array_equal treats the
    # NaNs of failed sweeps as equal).
    np.testing.assert_array_equal(compiled_series, scalar_series)

    record = {
        "radius": RADIUS,
        "measurements": N_MEASUREMENTS,
        "reps": REPS,
        "scalar_series_s": round(scalar_series_s, 4),
        "compiled_series_s": round(compiled_series_s, 4),
        "compiled_speedup": round(scalar_series_s / compiled_series_s, 2),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nbender perf: {json.dumps(record)}")

    assert record["compiled_speedup"] >= MIN_SPEEDUP
