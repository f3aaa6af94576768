"""Tests for logical-to-physical row mappings."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.mapping import (
    MirroredFoldMapping,
    ScrambledBlockMapping,
    SequentialMapping,
    reverse_engineer_adjacency,
)
from repro.errors import AddressError, ConfigurationError

MAPPINGS = [SequentialMapping, MirroredFoldMapping, ScrambledBlockMapping]


@pytest.mark.parametrize("mapping_cls", MAPPINGS)
def test_bijection_exhaustive_small(mapping_cls):
    mapping = mapping_cls(256)
    physical = {mapping.to_physical(row) for row in range(256)}
    assert physical == set(range(256))
    for row in range(256):
        assert mapping.to_logical(mapping.to_physical(row)) == row


@pytest.mark.parametrize("mapping_cls", MAPPINGS)
@given(row=st.integers(min_value=0, max_value=4095))
def test_roundtrip_property(mapping_cls, row):
    mapping = mapping_cls(4096)
    assert mapping.to_logical(mapping.to_physical(row)) == row
    assert mapping.to_physical(mapping.to_logical(row)) == row


def test_power_of_two_required():
    with pytest.raises(ConfigurationError):
        SequentialMapping(1000)


def test_neighbors_sequential():
    mapping = SequentialMapping(64)
    assert mapping.physical_neighbors(10) == [9, 11]
    assert mapping.physical_neighbors(0) == [1]
    assert mapping.physical_neighbors(63) == [62]


def test_neighbors_mirrored_differ_from_logical():
    mapping = MirroredFoldMapping(64)
    # Any row with bit 3 set maps through the fold.
    neighbors = mapping.aggressors_for_victim(8)
    assert len(neighbors) == 2
    # neighbors are logical addresses whose physicals are +-1 of victim's.
    physical = mapping.to_physical(8)
    assert sorted(mapping.to_physical(n) for n in neighbors) == [
        physical - 1, physical + 1,
    ]


def test_out_of_range_rejected():
    mapping = SequentialMapping(64)
    with pytest.raises(AddressError):
        mapping.to_physical(64)
    with pytest.raises(AddressError):
        mapping.physical_neighbors(-1)


def test_reverse_engineering_recovers_neighbors():
    mapping = ScrambledBlockMapping(256)

    def probe(row):
        return mapping.aggressors_for_victim(row)

    adjacency = reverse_engineer_adjacency(256, probe, range(16, 48))
    assert adjacency == {
        row: sorted(mapping.aggressors_for_victim(row)) for row in range(16, 48)
    }
    # The identity mapping should NOT explain a scrambled chip's data for
    # at least one probed row.
    identity = SequentialMapping(256)
    assert any(
        victims != identity.aggressors_for_victim(row)
        for row, victims in adjacency.items()
    )


@pytest.mark.parametrize(
    "mapping",
    [SequentialMapping(1024), MirroredFoldMapping(1024)]
    + [ScrambledBlockMapping(1024, key) for key in range(8)],
    ids=lambda mapping: f"{type(mapping).__name__}-{getattr(mapping, 'key', '')}",
)
def test_adjacency_spread_is_the_largest_neighbour_distance(mapping):
    """Adjacency discovery scans ``adjacency_spread`` logical rows either
    side of a hammered row, so the stated spread must cover (and equal)
    the largest logical distance between physically adjacent rows."""
    distances = [
        abs(mapping.to_logical(physical) - mapping.to_logical(physical + 1))
        for physical in range(mapping.n_rows - 1)
    ]
    assert mapping.adjacency_spread == max(distances)
