"""Tests for unit conversions."""

from repro import units


def test_roundtrips():
    assert units.us(7.8) == 7_800.0
    assert units.ns_to_ms(units.ms(64.0)) == 64.0
    assert units.ns_to_seconds(2.5 * units.NS_PER_S) == 2.5


def test_derived_scales():
    assert units.ms(1) == 1_000_000.0
    assert units.ns_to_hours(3600 * units.NS_PER_S) == 1.0
    assert units.ns_to_days(86_400 * units.NS_PER_S) == 1.0


def test_sizes():
    assert units.MIB == 1024 * units.KIB
    assert units.GIB == 1024 * units.MIB
