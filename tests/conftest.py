"""Shared fixtures: small, fast simulated devices, plus a memory fence."""

from __future__ import annotations

import pytest

#: Address-space cap for the test session. Every public entry point must
#: stay within bounded memory, so a runaway allocation should fail one
#: test with ``MemoryError`` rather than get the whole run OOM-killed.
ADDRESS_SPACE_CAP = 2 * 1024 ** 3


def _fence_address_space(cap: int = ADDRESS_SPACE_CAP) -> None:
    """Lower ``RLIMIT_AS`` to ``cap``; never raise an existing lower limit,
    and do nothing where the ``resource`` module is unavailable."""
    try:
        import resource
    except ImportError:  # non-POSIX platforms
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


_fence_address_space()

from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.dram.faults import VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule


SMALL_GEOMETRY = DramGeometry(
    n_banks=2, n_rows=1024, row_bits_per_chip=1024, n_chips=8
)


def make_module(
    module_id: str = "TEST",
    mean_rdt: float = 2000.0,
    seed: int = 1234,
    **param_overrides,
) -> DramModule:
    """A small module with a moderate RDT for fast bit-level tests."""
    params = VrdModelParams(mean_rdt=mean_rdt, **param_overrides)
    module = DramModule(
        module_id,
        geometry=SMALL_GEOMETRY,
        vrd_params=params,
        seed=seed,
    )
    return module


@pytest.fixture
def module() -> DramModule:
    mod = make_module()
    mod.disable_interference_sources()
    return mod


@pytest.fixture
def reference_config(module) -> TestConfig:
    return TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
