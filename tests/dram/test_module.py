"""Tests for module-level features: temperature and protocol kind."""

import pytest

from repro.errors import ConfigurationError
from tests.conftest import make_module


def test_temperature_bounds():
    module = make_module()
    module.set_temperature(85.0)
    assert module.temperature == 85.0
    with pytest.raises(ConfigurationError):
        module.set_temperature(200.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        make_module()  # fine
        from repro.dram.module import DramModule
        DramModule("X", kind="DDR9")
