"""Executes DRAM Bender programs against a simulated module.

The interpreter owns the clock: each instruction is scheduled at the
earliest time that satisfies the JEDEC constraints the bank enforces,
matching the "tightly scheduled" command streams of the paper's Appendix A.
It also keeps full command counts so test-time/energy estimation
(:mod:`repro.testtime`) can audit real executions against the analytic
model.

The interpreter is the specification of a compiled trial's replay
(:mod:`repro.bender.compiler`), and the timing of every compiled trial's
command stream is certified when its plan is compiled. The interpreter
itself keeps no command log: the time of each command it sends is the
``at`` operand of the module call it makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro import obs
from repro.bender.isa import Act, Hammer, Pre, ReadRow, Wait, WriteRow
from repro.bender.program import Program
from repro.dram.module import DramModule
from repro.errors import ProgramError


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    program_name: str
    elapsed_ns: float
    reads: Dict[str, np.ndarray] = field(default_factory=dict)
    command_counts: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> int:
        return self.command_counts.get(kind, 0)


class Interpreter:
    """Stateful executor; time persists across ``run`` calls.

    A fresh interpreter starts at t=0 with all banks idle. The same
    interpreter can run many programs back-to-back, which is how the
    methodology strings initialization, hammering, and readback together
    while staying within one refresh window.
    """

    def __init__(self, module: DramModule, start_ns: float = 0.0):
        self.module = module
        self.now = float(start_ns)
        self._counts: Dict[str, int] = {}

    def _bump(self, kind: str, amount: int = 1) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + amount

    def run(self, program: Program) -> ExecutionResult:
        """Execute a program; returns reads and timing/command accounting."""
        start = self.now
        run_counts: Dict[str, int] = {}

        def bump(kind: str, amount: int = 1) -> None:
            run_counts[kind] = run_counts.get(kind, 0) + amount
            self._bump(kind, amount)

        reads: Dict[str, np.ndarray] = {}
        timing = self.module.timing
        columns = self.module.geometry.columns_per_row

        for instruction in program:
            if isinstance(instruction, Act):
                bank = self.module.bank(instruction.bank)
                ready = max(
                    self.now,
                    bank.last_precharge + timing.tRP,
                    bank.last_activate + timing.tRC,
                )
                self.module.activate(instruction.bank, instruction.row, ready)
                self.now = ready
                bump("ACT")
            elif isinstance(instruction, Pre):
                bank = self.module.bank(instruction.bank)
                ready = self.now
                if bank.open_row is not None:
                    ready = max(
                        ready,
                        bank.opened_at + timing.tRAS,
                        bank.last_write_end + timing.tWR,
                    )
                    if instruction.min_on_ns is not None:
                        ready = max(ready, bank.opened_at + instruction.min_on_ns)
                self.module.precharge(instruction.bank, ready)
                self.now = ready
                bump("PRE")
            elif isinstance(instruction, WriteRow):
                bank = self.module.bank(instruction.bank)
                if bank.open_row is None:
                    raise ProgramError(
                        f"WriteRow to bank {instruction.bank} with no open row; "
                        "programs must ACT first (use ProgramBuilder.write_row)"
                    )
                # 1 write after tRCD, then columns-1 more at tCCD_L_WR pitch.
                first_wr = max(self.now, bank.opened_at + timing.tRCD)
                finish = first_wr + ((columns - 1) * timing.tCCD_L_WR)
                data = instruction.data(self.module.geometry.row_bytes)
                self.module.write_row(instruction.bank, instruction.row, data, finish)
                self.now = finish
                bump("WR", columns)
            elif isinstance(instruction, ReadRow):
                bank = self.module.bank(instruction.bank)
                if bank.open_row is None:
                    raise ProgramError(
                        f"ReadRow from bank {instruction.bank} with no open row"
                    )
                first_rd = max(self.now, bank.opened_at + timing.tRCD)
                finish = first_rd + (
                    (columns - 1) * timing.tCCD_L
                ) + timing.tRTP
                data = self.module.read_row(instruction.bank, instruction.row, finish)
                if instruction.tag in reads:
                    raise ProgramError(f"duplicate read tag {instruction.tag!r}")
                reads[instruction.tag] = data
                self.now = finish
                bump("RD", columns)
            elif isinstance(instruction, Wait):
                self.now += instruction.duration_ns
            elif isinstance(instruction, Hammer):
                t_on = max(instruction.t_agg_on, timing.tRAS)
                end = self.module.bulk_hammer(
                    instruction.bank,
                    list(instruction.rows),
                    instruction.count,
                    t_on,
                    self.now,
                )
                self.now = end
                bump("ACT", instruction.total_activations)
                bump("PRE", instruction.total_activations)
            else:  # pragma: no cover - exhaustive over the ISA
                raise ProgramError(f"unknown instruction {instruction!r}")

        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("bender.interp.runs")
            for kind, amount in run_counts.items():
                recorder.counter_add(f"bender.commands.{kind}", amount)

        return ExecutionResult(
            program_name=program.name,
            elapsed_ns=self.now - start,
            reads=reads,
            command_counts=run_counts,
        )

    @property
    def total_counts(self) -> Dict[str, int]:
        """Cumulative command counts across all runs."""
        return dict(self._counts)
