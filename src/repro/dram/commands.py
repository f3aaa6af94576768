"""DRAM command vocabulary.

The streams the :class:`~repro.dram.checker.TimingChecker` validates
against the timing parameters of :mod:`repro.dram.timing` are made of
these entries: single commands, uniform column bursts, and hammer loops
in closed periodic form. A compiled Bender trial certifies its plan's
stream in these terms (:mod:`repro.bender.compiler`), and the
memory-system simulator feeds its REF/PRE/ACT stream as single commands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


class CommandKind(enum.Enum):
    """DRAM bus commands used by the paper's methodology (Sec. 2.2)."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    #: Same-bank refresh (DDR5 REFsb, HBM2 single-bank refresh): refreshes
    #: one bank while the rest of the rank stays available.
    REFSB = "REFSB"
    #: Refresh-management command (DDR5); issued by PRAC/MINT style
    #: mitigations to give the DRAM time for preventive refreshes.
    RFM = "RFM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Command:
    """One issued command with its address and issue time (ns).

    ``bank`` is ``None`` for rank-level commands (REF, rank-level RFM).
    ``row`` is only meaningful for ACT; ``column`` for RD/WR.
    """

    kind: CommandKind
    issued_at: float
    bank: Optional[int] = None
    row: Optional[int] = None
    column: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is CommandKind.ACT and self.row is None:
            raise ValueError("ACT requires a row address")
        if self.kind in (CommandKind.RD, CommandKind.WR) and self.bank is None:
            raise ValueError(f"{self.kind} requires a bank address")

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``ACT b3 r0x1a2 @ 120.0ns``."""
        parts = [self.kind.value]
        if self.bank is not None:
            parts.append(f"b{self.bank}")
        if self.row is not None:
            parts.append(f"r0x{self.row:x}")
        if self.column is not None:
            parts.append(f"c{self.column}")
        parts.append(f"@ {self.issued_at:.1f}ns")
        return " ".join(parts)


@dataclass(frozen=True)
class CommandBurst:
    """``count`` same-kind commands at a uniform ``step`` cadence.

    A row access's column sweep (128 RD/WR commands) is one burst
    instead of 128 :class:`Command` objects: the uniform spacing means a
    checker can validate the whole burst with a constant number of
    comparisons (the first command against history, the internal
    ``step`` against same-kind cadence rules).
    """

    kind: CommandKind
    start: float
    step: float
    count: int
    bank: Optional[int] = None
    row: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"burst needs >= 1 command, got {self.count}")
        if self.count > 1 and self.step <= 0:
            raise ValueError("multi-command bursts need a positive step")

    @property
    def last_at(self) -> float:
        return self.start + (self.count - 1) * self.step

    def expand(self) -> Iterator[Command]:
        for i in range(self.count):
            yield Command(
                self.kind, self.start + i * self.step,
                bank=self.bank, row=self.row,
                column=i if self.count > 1 else None,
            )


@dataclass(frozen=True)
class HammerBlock:
    """A hammer loop's ACT/PRE stream in closed periodic form.

    ``count`` rounds over ``rows``; activation ``i`` (cycling the rows)
    opens at ``first_act + i * (t_on + t_pre)`` and precharges ``t_on``
    later. Describing the loop this way keeps checking it O(rows) — the
    same complexity class as ``Bank.bulk_hammer`` itself — instead of
    expanding ``2 * count * len(rows)`` commands.
    """

    bank: int
    rows: Tuple[int, ...]
    count: int
    t_on: float
    t_pre: float
    first_act: float

    def __post_init__(self) -> None:
        if self.count < 1 or not self.rows:
            raise ValueError("hammer block needs >= 1 round over >= 1 row")
        if self.t_on <= 0 or self.t_pre <= 0:
            raise ValueError("hammer block needs positive t_on and t_pre")

    @property
    def period(self) -> float:
        return self.t_on + self.t_pre

    @property
    def total_activations(self) -> int:
        return self.count * len(self.rows)

    @property
    def n_commands(self) -> int:
        return 2 * self.total_activations

    def expand(self) -> Iterator[Command]:
        for i in range(self.total_activations):
            act_at = self.first_act + i * self.period
            row = self.rows[i % len(self.rows)]
            yield Command(CommandKind.ACT, act_at, bank=self.bank, row=row)
            yield Command(CommandKind.PRE, act_at + self.t_on, bank=self.bank)
