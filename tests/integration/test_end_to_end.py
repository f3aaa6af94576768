"""Integration: the full Algorithm 1 pipeline on the simulated testbed."""

import numpy as np
import pytest

from repro.bender.host import DramBender
from repro.bender.temperature import PidTemperatureController
from repro.core.config import TestConfig
from repro.core.patterns import ALL_PATTERNS, CHECKERED0
from repro.core.rdt import FastRdtMeter, HammerSweep, RdtMeter, find_victim
from repro.core import stats
from repro.dram.mapping import MirroredFoldMapping
from repro.dram.module import DramModule
from tests.conftest import SMALL_GEOMETRY, make_module


def acf_indistinguishable_from_noise(
    values: np.ndarray, max_lag: int = 50, tolerated_excess: float = 0.1
) -> bool:
    """Fig. 6's conclusion as a predicate: at most ``tolerated_excess`` of
    the nonzero lags fall outside the 95% white-noise band (5% are
    expected outside by chance)."""
    acf = stats.autocorrelation(values, max_lag)
    outside = np.abs(acf[1:]) > stats.white_noise_acf_bound(len(values))
    return float(outside.mean()) <= tolerated_excess


def test_algorithm1_full_pipeline():
    """find_victim -> guess -> 30 measurements through the Bender path,
    with temperature control (the device has no refresh, TRR or ECC)."""
    module = make_module(seed=2024)
    bender = DramBender(module, controller=PidTemperatureController())
    bender.set_temperature(50.0)
    meter = RdtMeter(bender)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)

    guess, victim = find_victim(meter, rows=range(20), config=config)
    assert guess < 40_000
    sweep = HammerSweep.from_guess(guess)
    series = meter.measure_series(victim, config, 30, sweep=sweep)
    assert len(series.valid) == 30
    # Finding 1: the RDT changes across repeated measurements.
    assert series.n_unique > 1
    # Measured values sit on the sweep grid.
    grid = set(sweep.grid())
    assert set(series.valid) <= grid


def test_fast_and_bender_meters_statistically_agree():
    module = make_module(seed=7)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    victim = 123

    fast = FastRdtMeter(module).measure_series(victim, config, 600)
    meter = RdtMeter(DramBender(module))
    sweep = HammerSweep.from_guess(FastRdtMeter(module).guess_rdt(victim, config))
    slow = meter.measure_series(victim, config, 60, sweep=sweep)

    assert slow.mean == pytest.approx(fast.mean, rel=0.03)
    assert slow.cv == pytest.approx(fast.cv, abs=max(0.01, fast.cv))


def test_measurement_fits_within_refresh_window():
    """Sec. 3.1: every trial must complete inside tREFW so retention
    failures cannot interfere. Verify for a realistic sweep trial."""
    module = make_module()
    bender = DramBender(module)
    start = bender.elapsed_ns
    bender.run_trial(0, 100, CHECKERED0, 3000, module.timing.tRAS)
    elapsed = bender.elapsed_ns - start
    assert elapsed < module.timing.tREFW


def test_scrambled_mapping_transparent_to_methodology():
    """Measuring through reverse-engineered adjacency on a folded-mapping
    chip gives the same statistics as the mapping-aware route."""
    module = DramModule(
        "FOLD", geometry=SMALL_GEOMETRY, mapping_factory=MirroredFoldMapping,
        seed=5,
    )
    bender = DramBender(module)
    victim = 40  # in a folded region
    bender.discover_adjacency(0, [victim])
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    meter = RdtMeter(bender)
    series = meter.measure_series(victim, config, 20)
    assert len(series.valid) == 20


def test_pattern_sweep_changes_profile():
    """Finding 12 at small scale: at least two patterns differ in mean
    measured RDT for the same row."""
    module = make_module(seed=31)
    meter = FastRdtMeter(module)
    means = {}
    for pattern in ALL_PATTERNS:
        config = TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)
        means[pattern.name] = meter.measure_series(77, config, 300).mean
    values = list(means.values())
    assert max(values) > min(values)


def test_run_length_statistics_on_measured_series():
    """Finding 3's shape: most RDT states persist for only one
    measurement."""
    module = make_module(seed=11)
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    series = meter.measure_series(200, config, 2000)
    fraction = stats.fraction_single_measurement_changes(series.valid)
    assert fraction > 0.3


def test_acf_indistinguishable_from_noise_on_measured_series():
    """Finding 4: no temporal structure in the measured series."""
    module = make_module(seed=13)
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    series = meter.measure_series(300, config, 5000)
    assert acf_indistinguishable_from_noise(
        series.valid, max_lag=50, tolerated_excess=0.2
    )
