"""Tests for the DRAM Bender host API."""

import pytest

from repro.bender.host import DramBender
from repro.bender.temperature import PidTemperatureController
from repro.core.patterns import CHECKERED0
from repro.dram.faults import Condition
from repro.dram.mapping import ScrambledBlockMapping
from repro.dram.module import DramModule
from repro.errors import MeasurementError, ProgramError
from tests.conftest import SMALL_GEOMETRY, make_module


def make_bender(seed=1234, **kwargs):
    module = make_module(seed=seed)
    module.disable_interference_sources()
    return DramBender(module, **kwargs)


def test_prepare_for_characterization():
    module = make_module()
    bender = DramBender(module)
    bender.prepare_for_characterization()
    assert not module.refresh_enabled
    assert not module.mode.ecc_enabled


def test_set_temperature_with_controller():
    bender = make_bender(controller=PidTemperatureController())
    settled = bender.set_temperature(65.0)
    assert abs(settled - 65.0) <= 0.5
    assert bender.module.temperature == settled


def test_set_temperature_room():
    bender = make_bender()
    assert bender.set_temperature(50.0) == 50.0


def test_probe_neighbors_finds_physical_adjacency():
    module = DramModule(
        "SCR",
        geometry=SMALL_GEOMETRY,
        mapping_factory=ScrambledBlockMapping,
        seed=9,
    )
    module.disable_interference_sources()
    bender = DramBender(module)
    row = 40
    flipped = bender.probe_neighbors(0, row)
    mapping = module.bank(0).mapping
    assert sorted(flipped) == sorted(mapping.aggressors_for_victim(row))


def test_discover_adjacency_feeds_aggressors_for():
    module = DramModule(
        "SCR",
        geometry=SMALL_GEOMETRY,
        mapping_factory=ScrambledBlockMapping,
        seed=9,
    )
    module.disable_interference_sources()
    bender = DramBender(module)
    adjacency = bender.discover_adjacency(0, [40])
    assert bender.aggressors_for(0, 40) == adjacency[40]


def test_run_trial_above_and_below_threshold():
    bender = make_bender()
    module = bender.module
    victim = 100
    physical = module.bank(0).mapping.to_physical(victim)
    process = module.fault_model.process(0, physical)
    t_ras = module.timing.tRAS
    bender.begin_measurement(0, victim, CHECKERED0, t_ras)
    threshold = process.current_threshold(Condition("checkered0", t_ras, 50.0))
    assert bender.run_trial(0, victim, CHECKERED0, int(threshold * 0.6), t_ras) == []
    flips = bender.run_trial(0, victim, CHECKERED0, int(threshold * 1.1), t_ras)
    assert flips


def test_run_trial_rejects_negative_hammer_count():
    """Same error class as interpreting a trial program with that count."""
    bender = make_bender()
    t_ras = bender.module.timing.tRAS
    with pytest.raises(ProgramError):
        bender.trial_program(0, 100, CHECKERED0, -1, t_ras)
    bender.run_trial(0, 100, CHECKERED0, 100, t_ras)  # plan now cached
    before = bender.elapsed_ns
    with pytest.raises(ProgramError):
        bender.run_trial(0, 100, CHECKERED0, -1, t_ras)
    assert bender.elapsed_ns == before


@pytest.mark.parametrize("t_agg_on", [float("nan"), float("inf")])
def test_run_trial_rejects_non_finite_on_time(t_agg_on):
    bender = make_bender()
    with pytest.raises(ProgramError):
        bender.run_trial(0, 100, CHECKERED0, 100, t_agg_on)
    assert bender.elapsed_ns == 0.0


def test_trial_advances_testbed_clock():
    bender = make_bender()
    before = bender.elapsed_ns
    bender.run_trial(0, 100, CHECKERED0, 100, bender.module.timing.tRAS)
    assert bender.elapsed_ns > before


def test_trial_time_lower_bound_close_to_actual():
    bender = make_bender()
    t_ras = bender.module.timing.tRAS
    start = bender.elapsed_ns
    bender.run_trial(0, 100, CHECKERED0, 500, t_ras)
    actual = bender.elapsed_ns - start
    analytic = bender.trial_time_ns(500, t_ras)
    assert analytic <= actual * 1.001
    assert actual <= analytic * 1.5


def test_condition_for_floors_on_time():
    bender = make_bender()
    condition = bender.condition_for(CHECKERED0, 1.0)
    assert condition.t_agg_on == bender.module.timing.tRAS
