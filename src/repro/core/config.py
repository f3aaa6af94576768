"""Test configuration: the parameter axes of the paper's Sec. 5 study.

A :class:`TestConfig` names one combination of data pattern, aggressor-row
on-time, and temperature. The in-depth analysis sweeps four patterns, three
on-times (min tRAS, tREFI, 9 x tREFI), and three temperatures (50/65/80 C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.core.patterns import ALL_PATTERNS, DataPattern
from repro.dram.faults import Condition
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError

#: The three temperature setpoints of the paper's Sec. 5 experiments.
STANDARD_TEMPERATURES = (50.0, 65.0, 80.0)


@dataclass(frozen=True)
class TestConfig:
    """One (pattern, tAggOn, temperature[, wordline voltage]) combination.

    The wordline-voltage axis is this library's Sec. 6.5 process-corner
    extension; it defaults to the nominal 2.5 V so the paper's parameter
    grid is unchanged unless explicitly swept.
    """

    pattern: DataPattern
    t_agg_on_ns: float
    temperature_c: float = 50.0
    wordline_voltage_v: float = 2.5

    def __post_init__(self) -> None:
        if not 0 < self.t_agg_on_ns < math.inf:
            raise ConfigurationError(
                f"t_agg_on must be positive and finite, got {self.t_agg_on_ns}"
            )

    def condition(self, timing: TimingParams) -> Condition:
        """The device-visible condition (on-time floored at min tRAS)."""
        return Condition(
            pattern=self.pattern.name,
            t_agg_on=max(self.t_agg_on_ns, timing.tRAS),
            temperature=self.temperature_c,
            wordline_voltage=self.wordline_voltage_v,
        )

    def label(self) -> str:
        """Short label for tables: ``checkered0/35ns/50C``; the wordline
        voltage is appended only when off-nominal."""
        if self.t_agg_on_ns >= 1000.0:
            on = f"{self.t_agg_on_ns / 1000.0:g}us"
        else:
            on = f"{self.t_agg_on_ns:g}ns"
        base = f"{self.pattern.name}/{on}/{self.temperature_c:g}C"
        if self.wordline_voltage_v != 2.5:
            base += f"/{self.wordline_voltage_v:g}V"
        return base


def standard_t_agg_on_values(timing: TimingParams) -> Tuple[float, float, float]:
    """The paper's three on-time values for a given standard's timings."""
    return (timing.tRAS, timing.tREFI, 9.0 * timing.tREFI)


def standard_configs(
    timing: TimingParams,
    patterns: Sequence[DataPattern] = ALL_PATTERNS,
    temperatures: Sequence[float] = STANDARD_TEMPERATURES,
    t_agg_on_values: "Sequence[float] | None" = None,
) -> Iterator[TestConfig]:
    """Enumerate the full Sec. 5 parameter grid (36 combinations)."""
    on_values = (
        tuple(t_agg_on_values)
        if t_agg_on_values is not None
        else standard_t_agg_on_values(timing)
    )
    for pattern in patterns:
        for t_on in on_values:
            for temperature in temperatures:
                yield TestConfig(pattern, t_on, temperature)
