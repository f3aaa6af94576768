"""Instruction set of the simulated DRAM Bender.

Real DRAM Bender programs are sequences of raw DDR commands plus loop
constructs executed by the FPGA. We keep the same shape: five primitive
instructions and one loop macro (:class:`Hammer`) that the interpreter
executes semantically (bulk stress accounting) while preserving exact
command counts and timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ProgramError


@dataclass(frozen=True)
class Act:
    """Activate (open) a row."""

    bank: int
    row: int


@dataclass(frozen=True)
class Pre:
    """Precharge (close) the open row of a bank.

    ``min_on_ns`` stretches the preceding open interval to at least this
    value (how RowPress programs realize large tAggOn without NOP floods).
    """

    bank: int
    min_on_ns: Optional[float] = None


@dataclass(frozen=True)
class WriteRow:
    """Fill the open row with a repeated byte or an explicit image.

    Represents the 128-command column-write burst of Appendix A Table 4.
    """

    bank: int
    row: int
    fill: Union[int, bytes] = 0x00

    def data(self, row_bytes: int) -> np.ndarray:
        if isinstance(self.fill, int):
            if not 0 <= self.fill <= 0xFF:
                raise ProgramError(f"fill byte {self.fill} out of range")
            return np.full(row_bytes, self.fill, dtype=np.uint8)
        buffer = np.frombuffer(self.fill, dtype=np.uint8)
        if buffer.size != row_bytes:
            raise ProgramError(
                f"explicit row image is {buffer.size} bytes, expected {row_bytes}"
            )
        return buffer.copy()


@dataclass(frozen=True)
class ReadRow:
    """Read the open row into a named result buffer (128 column reads)."""

    bank: int
    row: int
    tag: str


@dataclass(frozen=True)
class Wait:
    """Advance time by a fixed number of nanoseconds."""

    duration_ns: float

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise ProgramError(f"negative wait {self.duration_ns}")


@dataclass(frozen=True)
class Hammer:
    """Loop macro: ``count`` rounds of (ACT row, hold t_agg_on, PRE) over
    each aggressor row in order — the double-sided access pattern when two
    rows are given.
    """

    bank: int
    rows: Sequence[int]
    count: int
    t_agg_on: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ProgramError(f"negative hammer count {self.count}")
        if not self.rows:
            raise ProgramError("hammer needs at least one aggressor row")
        if not 0 < self.t_agg_on < math.inf:
            raise ProgramError(
                f"t_agg_on must be positive and finite, got {self.t_agg_on}"
            )

    @property
    def total_activations(self) -> int:
        return self.count * len(self.rows)


Instruction = Union[Act, Pre, WriteRow, ReadRow, Wait, Hammer]
