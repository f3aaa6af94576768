"""Trace compiler for DRAM Bender trials.

Real DRAM-Bender-style testbeds (and SoftMC before them) get their
throughput by compiling whole test loops into dense command streams that
the FPGA replays in bulk. This module is the software analogue for the
simulated Bender: it takes the straight-line Algorithm 1 trial
:class:`~repro.bender.program.Program` that
:meth:`~repro.bender.host.DramBender.trial_program` builds, validates it
once against the same rules the interpreter and the bank enforce, and
lowers it to a flat list of pre-resolved steps — physical row addresses,
shared fill templates, constant timing operands — that can be executed
without per-instruction dispatch, per-write ``np.full`` allocations, or
per-trial program rebuilds. Every ``DramBender.run_trial`` replays such a
plan.

The scalar :class:`~repro.bender.interpreter.Interpreter` remains the
specification. Everything a replay produces — the victim's flipped bits,
the interpreter clock, command counts, bank timing state, stress
accounting, RNG consumption of the fault model — is bit-identical to
``Interpreter.run`` on the same trial program followed by a byte compare
of the victim; ``tests/bender/test_compiler.py`` and the ``bender`` pairs
of ``tests/differential`` assert exactly that. Two consequences shape the
design:

* **Timing is replayed, not re-associated.** IEEE floats make
  ``fl(fl(a + x) + y) != fl(a + (x + y))`` in general, so the JEDEC
  ready-time chain cannot be folded into cumulative arrays without
  breaking bit-identity. The compiler instead replays the interpreter's
  exact ``max``/``+`` sequence over precompiled operands (a few dozen
  float ops per trial — never the bottleneck). The batching wins come from
  data movement: shared fill templates instead of per-instruction
  ``np.full``, skip-copy row writes, and flips read off the bank's stress
  ledger instead of an 8 KiB ``unpackbits`` compare.
* **Malformed programs fail at compile time.** ``compile_trial`` raises
  the same exception classes the scalar path would (``ProgramError`` for
  column access with no open row or duplicate read tags,
  ``CommandSequenceError`` for ACT-while-open, ``AddressError`` for bad
  addresses) — but *before* executing anything, where the interpreter
  raises mid-run after earlier instructions took effect. Programs the
  interpreter accepts but that are not a trial — a ``Wait``, a precharge
  of an idle bank, more than one bank, hammer or read, or a command
  stream that is not rigid (see :meth:`CompiledTrial._rigid_stream`) —
  raise ``ProgramError``. A replay also requires the trial's bank to be
  closed when it starts (the builder idioms always end closed) and
  refuses otherwise.

Timing is certified at compile time, too. A rigid plan's command stream
is a time-translation between replays, so its legality is a property of
the plan: ``compile_trial`` feeds the stream of every hammer-count class,
back to back, through a :class:`~repro.dram.checker.TimingChecker` with
the protocol's full rule table (tFAW windows included) and raises
``TimingViolationError`` on a violation (:meth:`CompiledTrial._certify`).
Replays carry no check.

:class:`CompiledTrial` makes the hammer count a replay operand, so one
compilation serves a whole ``RdtMeter.measure_series`` sweep grid, and row
writes skip the template copy entirely when the stored row is provably
unchanged since the previous replay (tracked through the stress ledger's
``flipped`` set; the simulated device has no refresh that could clear the
ledger without restoring content).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.bender.interpreter import Interpreter
from repro.bender.isa import Act, Hammer, Pre, ReadRow, Wait, WriteRow
from repro.bender.program import Program
from repro.dram.bank import _RowStress
from repro.dram.checker import TimingChecker
from repro.dram.commands import Command, CommandBurst, CommandKind, HammerBlock
from repro.dram.module import DramModule
from repro.errors import CommandSequenceError, ProgramError, TimingViolationError

# Lowered opcodes (plain ints: tuple dispatch beats isinstance chains).
OP_ACT = 0
OP_PRE = 1
OP_WRITE = 2
OP_READ = 3
OP_HAMMER = 4

#: Step tuples, by opcode:
#:   (OP_ACT, bank, logical, physical)
#:   (OP_PRE, bank, min_on_ns|None, below_victim|-1, above_victim|-1)
#:   (OP_WRITE, bank, logical, physical, template)
#:   (OP_READ, bank, logical, physical, tag)
#:   (OP_HAMMER, bank, logical_rows, t_on, count)
Step = Tuple

#: Activations in one tFAW window: the hammer counts whose loops hold
#: fewer activations than this are certified one by one.
_WINDOW_ACTS = 4


def _lower(program: Program, module: DramModule) -> Tuple[List[Step], Dict[str, int]]:
    """Validate a straight-line program and lower it to flat steps.

    Tracks per-bank symbolic open-row state under the compiled-path entry
    precondition (every touched bank starts closed) and raises the same
    exception classes the scalar route would, at compile time. A ``Wait``
    or an idle-bank precharge is valid but not a trial step: it raises
    ``ProgramError`` only after the whole program validated, so any error
    the interpreter would raise takes precedence.
    """
    geometry = module.geometry
    timing = module.timing
    columns = geometry.columns_per_row
    n_rows = geometry.n_rows

    steps: List[Step] = []
    counts: Dict[str, int] = {}
    open_rows: Dict[int, Optional[int]] = {}
    tags: set = set()
    unsupported: Optional[str] = None

    def bump(kind: str, amount: int = 1) -> None:
        counts[kind] = counts.get(kind, 0) + amount

    # Shared read-only fill templates: one array per distinct image.
    templates: Dict[object, np.ndarray] = {}

    for instruction in program:
        if isinstance(instruction, Act):
            bank = module.bank(instruction.bank)
            geometry.validate_address(instruction.bank, instruction.row)
            open_physical = open_rows.get(instruction.bank)
            if open_physical is not None:
                raise CommandSequenceError(
                    f"bank {instruction.bank}: ACT while row "
                    f"{open_physical} is open"
                )
            physical = bank.mapping.to_physical(instruction.row)
            open_rows[instruction.bank] = physical
            steps.append((OP_ACT, instruction.bank, instruction.row, physical))
            bump("ACT")
        elif isinstance(instruction, Pre):
            module.bank(instruction.bank)
            open_physical = open_rows.get(instruction.bank)
            if open_physical is None:
                unsupported = unsupported or f"PRE of idle bank {instruction.bank}"
                continue
            below = open_physical + 1 if open_physical + 1 < n_rows else -1
            above = open_physical - 1  # already -1 when out of range
            steps.append(
                (OP_PRE, instruction.bank, instruction.min_on_ns, below, above)
            )
            open_rows[instruction.bank] = None
            bump("PRE")
        elif isinstance(instruction, WriteRow):
            bank = module.bank(instruction.bank)
            if open_rows.get(instruction.bank) is None:
                raise ProgramError(
                    f"WriteRow to bank {instruction.bank} with no open row; "
                    "programs must ACT first (use ProgramBuilder.write_row)"
                )
            key = instruction.fill if isinstance(instruction.fill, int) else (
                bytes(instruction.fill)
            )
            template = templates.get(key)
            if template is None:
                template = instruction.data(geometry.row_bytes)
                template.setflags(write=False)
                templates[key] = template
            geometry.validate_address(instruction.bank, instruction.row)
            physical = bank.mapping.to_physical(instruction.row)
            if open_rows[instruction.bank] != physical:
                raise CommandSequenceError(
                    f"bank {instruction.bank}: column access to row "
                    f"{instruction.row} (physical {physical}) but open row "
                    f"is {open_rows[instruction.bank]}"
                )
            steps.append(
                (OP_WRITE, instruction.bank, instruction.row, physical, template)
            )
            bump("WR", columns)
        elif isinstance(instruction, ReadRow):
            bank = module.bank(instruction.bank)
            if open_rows.get(instruction.bank) is None:
                raise ProgramError(
                    f"ReadRow from bank {instruction.bank} with no open row"
                )
            geometry.validate_address(instruction.bank, instruction.row)
            physical = bank.mapping.to_physical(instruction.row)
            if open_rows[instruction.bank] != physical:
                raise CommandSequenceError(
                    f"bank {instruction.bank}: column access to row "
                    f"{instruction.row} (physical {physical}) but open row "
                    f"is {open_rows[instruction.bank]}"
                )
            if instruction.tag in tags:
                raise ProgramError(f"duplicate read tag {instruction.tag!r}")
            tags.add(instruction.tag)
            steps.append(
                (OP_READ, instruction.bank, instruction.row, physical,
                 instruction.tag)
            )
            bump("RD", columns)
        elif isinstance(instruction, Wait):
            unsupported = unsupported or "WAIT"
        elif isinstance(instruction, Hammer):
            module.bank(instruction.bank)
            open_physical = open_rows.get(instruction.bank)
            if open_physical is not None:
                raise CommandSequenceError(
                    f"bank {instruction.bank}: hammer loop while row "
                    f"{open_physical} open"
                )
            if instruction.count > 0:
                for row in instruction.rows:
                    geometry.validate_address(instruction.bank, row)
            t_on = max(instruction.t_agg_on, timing.tRAS)
            steps.append(
                (OP_HAMMER, instruction.bank, list(instruction.rows), t_on,
                 instruction.count)
            )
            bump("ACT", instruction.total_activations)
            bump("PRE", instruction.total_activations)
        else:
            raise ProgramError(f"unknown instruction {instruction!r}")

    if unsupported is not None:
        raise ProgramError(f"a compiled trial cannot contain {unsupported}")
    return steps, counts


class CompiledTrial:
    """A compiled Algorithm 1 trial with the hammer count as an operand.

    One compilation covers a whole measurement sweep: ``replay`` executes
    the init → double-sided hammer → readback trace with a per-call hammer
    count and returns the victim's flipped bit positions — bit-identical to
    interpreting the same trial program and comparing the victim byte for
    byte, including the bank timing state, stress accounting, and
    fault-model RNG consumption it leaves behind.
    Construction certifies the plan's timing against the protocol's full
    rule table (:meth:`_certify`), so no replay checks it again.

    Beyond dispatch, two trial-specific shortcuts hold the speedup:

    * **Skip-copy writes.** The plan remembers the exact array object it
      placed in bank storage per row, and its template. When that object
      is still stored, the write's template is the same, and
      the row's stress ledger records no materialized flips, the row
      provably equals the template (flips only materialize on read and are
      always ledgered), so the 1–8 KiB copy is skipped. Any external write
      replaces the object and any read that flips is ledgered, so mixing
      replays with interpreted programs stays exact. Only a write resets
      the ledger: the simulated device has no refresh (the methodology
      switches it off, Sec. 3.1), so the shortcut is always armed.
    * **Ledger reads.** The victim is written with the pattern byte each
      trial, so its post-read XOR against the expected image is exactly
      the stress ledger's ``flipped`` set — no row copy, no ``unpackbits``.
      The device has no on-die ECC, so every ledgered flip reads back.
    """

    def __init__(self, program: Program, module: DramModule):
        self.name = program.name
        self.module = module
        steps, counts = _lower(program, module)
        banks = {step[1] for step in steps}
        if len(banks) != 1:
            raise ProgramError(
                f"a compiled trial must target exactly one bank, got {sorted(banks)}"
            )
        hammers = [step for step in steps if step[0] == OP_HAMMER]
        read_steps = [step for step in steps if step[0] == OP_READ]
        if len(hammers) != 1 or len(read_steps) != 1:
            raise ProgramError(
                "a compiled trial needs exactly one Hammer and one ReadRow"
            )
        if read_steps[0][3] not in {s[3] for s in steps if s[0] == OP_WRITE}:
            raise ProgramError("a compiled trial must write the row it reads")
        if not self._rigid_stream(steps):
            raise ProgramError(
                "a compiled trial must open with ACT, precharge only after "
                "a write, write nothing after its hammer and end closed"
            )
        self.bank_index = banks.pop()
        self._steps = steps
        self._hammer_rows = len(hammers[0][2])
        # The placeholder hammer count is compiled out of the static
        # counts; replay adds the per-call contribution instead.
        placeholder = hammers[0][4] * self._hammer_rows
        self._static_counts = dict(counts)
        self._static_counts["ACT"] = counts.get("ACT", 0) - placeholder
        self._static_counts["PRE"] = counts.get("PRE", 0) - placeholder
        self._static_acts = sum(1 for step in steps if step[0] == OP_ACT)
        self._placed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._certify()

    @staticmethod
    def _rigid_stream(steps) -> bool:
        """Whether every command time is a fixed offset from the first
        command (before the hammer) or from the hammer's end (after it).

        Holds when only the opening ACT can read pre-entry bank state:
        the plan opens with ACT, every PRE follows an in-plan WRITE (so
        ``last_write_end`` is plan-internal) and no WRITE follows the
        hammer. A replay also leaves its bank closed, so the plan must end
        with it closed. ``_lower`` already guarantees statically
        consistent row state. Trial programs built by ``DramBender``
        satisfy all of this.
        """
        if not steps or steps[0][0] != OP_ACT:
            return False
        is_open = False
        seen_write = False
        seen_hammer = False
        for step in steps:
            op = step[0]
            if op == OP_ACT:
                is_open = True
            elif op == OP_WRITE:
                if seen_hammer:
                    return False
                seen_write = True
            elif op == OP_PRE:
                if not seen_write:
                    return False
                is_open = False
            elif op == OP_HAMMER:
                seen_hammer = True
        return not is_open

    def _certify(self) -> None:
        """Check the plan's command stream once, against the full rule
        table of the module's protocol (tFAW windows included).

        A replay's stream is a rigid translation of the plan's (see
        :meth:`_rigid_stream`) and depends on nothing but its hammer
        count. The count reaches the rules only through how many
        activations the hammer loop puts between the plan's head and tail,
        up to one tFAW window: every count from ``k`` on (``k`` the first
        with at least four activations) has the same head, tail and loop
        cadence, so the counts ``0..k`` stand for all of them. A replay's
        tFAW window can also reach into the next replay, so the junction
        of the plan's end with its next start depends on both counts. One
        stream from a closed, idle bank feeds the counts in an order where
        every ordered pair of them follows back to back
        (``certified_counts``); a violation refuses the plan.
        """
        last = -(-_WINDOW_ACTS // self._hammer_rows)
        # ``0, 0``, then for each ``m``: ``m, m``, ``j, m`` for every
        # ``0 < j < m``, then ``0`` -- which adds every pair with ``m``.
        counts = [0, 0]
        for m in range(1, last + 1):
            counts += [m, m]
            for j in range(1, m):
                counts += [j, m]
            counts.append(0)
        #: The hammer counts certified, in order: ``0..k`` such that every
        #: ordered pair ``(a, b)`` occurs back to back (``0, 0, 1, 1, 0, 2,
        #: 2, 1, 2, 0`` for ``k = 2``).
        self.certified_counts: Tuple[int, ...] = tuple(counts)
        module = self.module
        checker = TimingChecker(timing=module.timing, geometry=module.geometry)
        for entry in self.command_stream(counts):
            checker.feed(entry)
        if not checker.report.ok:
            raise TimingViolationError(
                f"trial plan {self.name!r} breaks {module.timing.name}: "
                f"{checker.report.violations[0].describe()}"
            )

    def command_stream(
        self, hammer_counts: Sequence[int]
    ) -> Iterator[Union[Command, CommandBurst, HammerBlock]]:
        """The commands of back-to-back replays at ``hammer_counts``, from
        a closed, idle bank at t = 0.

        Walks :meth:`replay`'s ready-time chain (the interpreter's, operand
        for operand, and ``Bank.bulk_hammer``'s for the loop) on local
        state; no device is touched. ``tests/bender/test_compiler.py``
        pins it, command for command, to the interpreted trial's stream.
        """
        timing = self.module.timing
        tRP = timing.tRP
        tRC = timing.tRC
        tCCD_L = timing.tCCD_L
        tCCD_L_WR = timing.tCCD_L_WR
        columns = self.module.geometry.columns_per_row
        write_tail = (columns - 1) * tCCD_L_WR
        read_tail = (columns - 1) * tCCD_L
        bank = self.bank_index
        now = 0.0
        opened_at = last_activate = last_precharge = last_write_end = -math.inf
        for count in hammer_counts:
            for step in self._steps:
                op = step[0]
                if op == OP_ACT:
                    now = max(now, last_precharge + tRP, last_activate + tRC)
                    opened_at = last_activate = now
                    yield Command(CommandKind.ACT, now, bank=bank, row=step[2])
                elif op == OP_WRITE:
                    first = max(now, opened_at + timing.tRCD)
                    now = last_write_end = first + write_tail
                    yield CommandBurst(
                        CommandKind.WR, first, tCCD_L_WR, columns,
                        bank=bank, row=step[2],
                    )
                elif op == OP_PRE:
                    now = max(
                        now, opened_at + timing.tRAS,
                        last_write_end + timing.tWR,
                    )
                    if step[2] is not None:
                        now = max(now, opened_at + step[2])
                    last_precharge = now
                    yield Command(CommandKind.PRE, now, bank=bank)
                elif op == OP_READ:
                    first = max(now, opened_at + timing.tRCD)
                    now = first + read_tail + timing.tRTP
                    yield CommandBurst(
                        CommandKind.RD, first, tCCD_L, columns,
                        bank=bank, row=step[2],
                    )
                else:  # OP_HAMMER
                    rows, t_on = step[2], step[3]
                    now = max(now, last_precharge + tRP)
                    if count:
                        yield HammerBlock(
                            bank, tuple(rows), count, t_on, tRP, now
                        )
                        now += count * (len(rows) * (t_on + tRP))
                        last_activate = now - t_on - tRP
                        last_precharge = now - tRP

    def replay(self, interpreter: Interpreter, hammer_count: int) -> List[int]:
        """One trial at ``hammer_count``; returns flipped bit positions."""
        module = self.module
        if interpreter.module is not module:
            raise ProgramError(
                "compiled trial executed against a different module"
            )
        if hammer_count < 0:
            raise ProgramError(f"negative hammer count {hammer_count}")
        bank = module.banks[self.bank_index]
        if bank.open_row is not None:
            raise CommandSequenceError(
                f"bank {self.bank_index}: compiled trial requires a closed "
                f"bank at entry, but row {bank.open_row} is open"
            )
        timing = module.timing
        tRP = timing.tRP
        tRC = timing.tRC
        tRAS = timing.tRAS
        tWR = timing.tWR
        tRCD = timing.tRCD
        tRTP = timing.tRTP
        columns = module.geometry.columns_per_row
        write_tail = (columns - 1) * timing.tCCD_L_WR
        read_tail = (columns - 1) * timing.tCCD_L

        now = interpreter.now
        opened_at = bank.opened_at
        last_activate = bank.last_activate
        last_precharge = bank.last_precharge
        last_write_end = bank.last_write_end
        storage = bank._storage
        stress_map = bank._stress
        freshness = bank._freshness
        placed = self._placed
        flips: List[int] = []

        for step in self._steps:
            op = step[0]
            if op == OP_WRITE:
                physical = step[3]
                first_wr = max(now, opened_at + tRCD)
                finish = first_wr + write_tail
                stress = stress_map.get(physical)
                mine = placed.get(physical)
                if (
                    mine is not None
                    and mine[1] is step[4]
                    and storage.get(physical) is mine[0]
                    and (stress is None or not stress.flipped)
                ):
                    pass  # stored content still equals the template
                else:
                    image = step[4].copy()
                    storage[physical] = image
                    placed[physical] = (image, step[4])
                if stress is not None and (
                    stress.below_acts or stress.above_acts or stress.flipped
                ):
                    stress.reset()
                freshness[physical] = finish
                last_write_end = finish
                now = finish
            elif op == OP_ACT:
                ready = max(now, last_precharge + tRP, last_activate + tRC)
                opened_at = ready
                last_activate = ready
                now = ready
            elif op == OP_PRE:
                ready = max(now, opened_at + tRAS, last_write_end + tWR)
                if step[2] is not None:
                    ready = max(ready, opened_at + step[2])
                on_time = ready - opened_at
                below = step[3]
                if below >= 0:
                    stress = stress_map.get(below)
                    if stress is None:
                        stress = _RowStress()
                        stress_map[below] = stress
                    stress.below_acts += 1
                    stress.below_on_ns += on_time
                above = step[4]
                if above >= 0:
                    stress = stress_map.get(above)
                    if stress is None:
                        stress = _RowStress()
                        stress_map[above] = stress
                    stress.above_acts += 1
                    stress.above_on_ns += on_time
                last_precharge = ready
                now = ready
            elif op == OP_READ:
                physical = step[3]
                first_rd = max(now, opened_at + tRCD)
                finish = first_rd + read_tail + tRTP
                if physical not in storage:
                    data = bank._powerup_content(physical)
                    storage[physical] = data
                    freshness[physical] = finish
                bank._apply_disturbance(physical, finish)
                bank._apply_retention(physical, finish)
                stress = stress_map.get(physical)
                if stress is not None and stress.flipped:
                    flips = sorted(stress.flipped)
                now = finish
            else:  # OP_HAMMER — the bank's own loop keeps stress exact
                bank.last_precharge = last_precharge
                bank.last_activate = last_activate
                now = bank.bulk_hammer(step[2], hammer_count, step[3], now)
                last_precharge = bank.last_precharge
                last_activate = bank.last_activate

        bank.open_row = None
        bank.opened_at = opened_at
        bank.last_activate = last_activate
        bank.last_precharge = last_precharge
        bank.last_write_end = last_write_end
        bank.activation_count += self._static_acts
        interpreter.now = now

        total_activations = hammer_count * self._hammer_rows
        for kind, amount in self._static_counts.items():
            interpreter._bump(kind, amount)
        interpreter._bump("ACT", total_activations)
        interpreter._bump("PRE", total_activations)

        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("bender.replay.runs")
            for kind, amount in self._static_counts.items():
                recorder.counter_add(f"bender.commands.{kind}", amount)
            recorder.counter_add("bender.commands.ACT", total_activations)
            recorder.counter_add("bender.commands.PRE", total_activations)
        return flips


def compile_trial(program: Program, module: DramModule) -> CompiledTrial:
    """Compile a single-bank Algorithm 1 trial for hammer-count replay.

    Raises :class:`~repro.errors.TimingViolationError` when the plan's
    command stream breaks a rule of the module's protocol.
    """
    return CompiledTrial(program, module)
