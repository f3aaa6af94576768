"""Tests for synthetic workloads and mixes."""

import pytest

from repro.errors import ConfigurationError
from repro.memsim.trace import (
    HIGH_MPKI_WORKLOADS,
    AddressGenerator,
    SyntheticWorkload,
    WorkloadMix,
    standard_mixes,
)


def test_pool_is_highly_memory_intensive():
    assert len(HIGH_MPKI_WORKLOADS) == 15
    assert all(w.mpki >= 20.0 for w in HIGH_MPKI_WORKLOADS)


def test_gap_ns_inverse_of_mpki():
    light = SyntheticWorkload("light", 20.0, 0.5)
    heavy = SyntheticWorkload("heavy", 80.0, 0.5)
    assert heavy.gap_ns() < light.gap_ns()


def test_workload_validation():
    with pytest.raises(ConfigurationError):
        SyntheticWorkload("bad", 0.0, 0.5)
    with pytest.raises(ConfigurationError):
        SyntheticWorkload("bad", 20.0, 1.0)
    with pytest.raises(ConfigurationError):
        SyntheticWorkload("bad", 20.0, 0.5, hot_rows=0)


def test_standard_mixes_deterministic():
    a = standard_mixes(15)
    b = standard_mixes(15)
    assert len(a) == 15
    assert [m.workloads for m in a] == [m.workloads for m in b]
    assert all(len(m.workloads) == 4 for m in a)


def test_mix_requires_four():
    with pytest.raises(ConfigurationError):
        WorkloadMix("bad", HIGH_MPKI_WORKLOADS[:3])


def test_address_generator_locality():
    workload = SyntheticWorkload("w", 30.0, 0.9, hot_rows=16)
    gen = AddressGenerator(workload, core=0, n_banks=8, n_rows=4096, seed=0)
    addresses = list(zip(*gen.take(2000)))
    repeats = sum(a == b for a, b in zip(addresses, addresses[1:]))
    assert repeats / len(addresses) > 0.8


def test_address_generator_bounds_and_hot_bias():
    workload = SyntheticWorkload("w", 30.0, 0.1, hot_rows=16)
    gen = AddressGenerator(workload, core=1, n_banks=8, n_rows=4096, seed=0)
    from collections import Counter

    banks, picks = gen.take(5000)
    assert banks.min() >= 0 and banks.max() < 8
    assert picks.min() >= 0 and picks.max() < 4096
    rows = Counter(picks.tolist())
    assert len(rows) <= 16
    counts = sorted(rows.values(), reverse=True)
    assert counts[0] > counts[-1] * 2  # zipf bias


def test_cores_use_disjoint_regions():
    workload = SyntheticWorkload("w", 30.0, 0.0, hot_rows=16)
    rows0 = {AddressGenerator(workload, 0, 8, 4096, 0).take(1)[1][0]
             for _ in range(200)}
    rows1 = {AddressGenerator(workload, 1, 8, 4096, 0).take(1)[1][0]
             for _ in range(200)}
    assert not rows0 & rows1
