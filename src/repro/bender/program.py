"""Test-program container and builder.

The builder provides the idioms the paper's methodology needs — initialize a
victim and its neighborhood with a data pattern, hammer double-sided, read
back for comparison — while programs remain plain instruction lists that the
interpreter (and tests) can inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.bender.isa import Act, Hammer, Instruction, Pre, ReadRow, Wait, WriteRow
from repro.core.patterns import DataPattern
from repro.errors import ProgramError


@dataclass
class Program:
    """An ordered list of instructions with a human-readable name."""

    name: str = "program"
    instructions: List[Instruction] = field(default_factory=list)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class ProgramBuilder:
    """Fluent builder for DRAM Bender test programs."""

    def __init__(self, name: str = "program"):
        self._program = Program(name=name)

    def build(self) -> Program:
        """Finish and return the program."""
        return self._program

    # -- primitives ----------------------------------------------------

    def act(self, bank: int, row: int) -> "ProgramBuilder":
        self._program.instructions.append(Act(bank, row))
        return self

    def pre(self, bank: int, min_on_ns: "float | None" = None) -> "ProgramBuilder":
        self._program.instructions.append(Pre(bank, min_on_ns))
        return self

    def wait(self, duration_ns: float) -> "ProgramBuilder":
        self._program.instructions.append(Wait(duration_ns))
        return self

    def write_row(self, bank: int, row: int, fill) -> "ProgramBuilder":
        """Open, fill, and close one row."""
        self._program.instructions.append(Act(bank, row))
        self._program.instructions.append(WriteRow(bank, row, fill))
        self._program.instructions.append(Pre(bank))
        return self

    def read_row(self, bank: int, row: int, tag: str) -> "ProgramBuilder":
        """Open, read (into ``tag``), and close one row."""
        self._program.instructions.append(Act(bank, row))
        self._program.instructions.append(ReadRow(bank, row, tag))
        self._program.instructions.append(Pre(bank))
        return self

    def hammer(
        self, bank: int, rows: Sequence[int], count: int, t_agg_on: float
    ) -> "ProgramBuilder":
        self._program.instructions.append(
            Hammer(bank, tuple(rows), count, t_agg_on)
        )
        return self

    # -- methodology idioms ---------------------------------------------

    def initialize_neighborhood(
        self,
        bank: int,
        victim: int,
        aggressors: Sequence[int],
        pattern: DataPattern,
        n_rows: int,
        radius: int = 2,
    ) -> "ProgramBuilder":
        """Write the Table 2 data pattern around a victim row.

        The victim gets ``pattern.victim_byte``, the aggressors the
        complement, and rows at distance 2..radius the victim byte again
        (Table 2's ``V +/- [2:8]`` rows). ``radius`` is configurable so
        small-scale tests stay cheap.
        """
        if radius < 1:
            raise ProgramError("radius must be >= 1")
        self.write_row(bank, victim, pattern.victim_byte)
        for aggressor in aggressors:
            self.write_row(bank, aggressor, pattern.aggressor_byte)
        for distance in range(2, radius + 1):
            for neighbor in (victim - distance, victim + distance):
                if 0 <= neighbor < n_rows and neighbor not in aggressors:
                    self.write_row(bank, neighbor, pattern.victim_byte)
        return self

    def double_sided_round(
        self,
        bank: int,
        aggressors: Sequence[int],
        hammer_count: int,
        t_agg_on: float,
    ) -> "ProgramBuilder":
        """One hammer phase of an RDT test trial."""
        if len(aggressors) not in (1, 2):
            raise ProgramError(
                f"double-sided round expects 1-2 aggressors, got {len(aggressors)}"
            )
        return self.hammer(bank, aggressors, hammer_count, t_agg_on)
