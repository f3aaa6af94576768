"""Time, energy, and size units.

All simulator-internal times are kept in **nanoseconds** as floats, matching
the resolution of JEDEC timing parameters (Table 6 of the paper). These
helpers exist so call sites read like the paper ("tREFI is 7.8 us") instead
of carrying raw conversion factors around.
"""

from __future__ import annotations

NS_PER_US = 1_000.0
NS_PER_MS = 1_000_000.0
NS_PER_S = 1_000_000_000.0


def us(value: float) -> float:
    """Convert microseconds to nanoseconds."""
    return value * NS_PER_US


def ms(value: float) -> float:
    """Convert milliseconds to nanoseconds."""
    return value * NS_PER_MS


def ns_to_ms(value_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return value_ns / NS_PER_MS


def ns_to_seconds(value_ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return value_ns / NS_PER_S


def ns_to_hours(value_ns: float) -> float:
    """Convert nanoseconds to hours."""
    return value_ns / NS_PER_S / 3600.0


def ns_to_days(value_ns: float) -> float:
    """Convert nanoseconds to days."""
    return value_ns / NS_PER_S / 86_400.0


KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
