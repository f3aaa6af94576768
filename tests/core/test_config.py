"""Tests for test configurations and the Sec. 5 parameter grid."""

import pytest

from repro.core.config import (
    STANDARD_TEMPERATURES,
    TestConfig,
    standard_configs,
    standard_t_agg_on_values,
)
from repro.core.patterns import ALL_PATTERNS, CHECKERED0
from repro.dram.timing import DDR4_3200
from repro.errors import ConfigurationError


def test_standard_grid_size():
    configs = list(standard_configs(DDR4_3200))
    # 4 patterns x 3 on-times x 3 temperatures = 36 combinations.
    assert len(configs) == 36
    labels = {config.label() for config in configs}
    assert len(labels) == 36


def test_standard_on_times():
    values = standard_t_agg_on_values(DDR4_3200)
    assert values[0] == DDR4_3200.tRAS
    assert values[1] == DDR4_3200.tREFI
    assert values[2] == 9 * DDR4_3200.tREFI


def test_temperatures():
    assert STANDARD_TEMPERATURES == (50.0, 65.0, 80.0)


def test_condition_floors_on_time():
    config = TestConfig(CHECKERED0, t_agg_on_ns=1.0)
    condition = config.condition(DDR4_3200)
    assert condition.t_agg_on == DDR4_3200.tRAS


def test_label_formats_units():
    assert TestConfig(CHECKERED0, 35.0, 65.0).label() == "checkered0/35ns/65C"
    assert "us" in TestConfig(CHECKERED0, 7800.0).label()


def test_invalid_on_time():
    for value in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TestConfig(CHECKERED0, t_agg_on_ns=value)


def test_subset_grid():
    configs = list(
        standard_configs(
            DDR4_3200,
            patterns=ALL_PATTERNS[:1],
            temperatures=(50.0,),
            t_agg_on_values=(35.0,),
        )
    )
    assert len(configs) == 1
