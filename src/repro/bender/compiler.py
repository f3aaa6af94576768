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

:class:`CompiledTrial` makes the hammer count a replay operand, so one
compilation serves a whole ``RdtMeter.measure_series`` sweep grid, and row
writes skip the template copy entirely when the stored row is provably
unchanged since the previous replay (tracked through the stress ledger's
``flipped`` set; the skip is disabled while refresh is enabled, since
``refresh_row`` clears the ledger without restoring content).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.bender.interpreter import Interpreter
from repro.bender.isa import Act, Hammer, Pre, ReadRow, Wait, WriteRow
from repro.bender.program import Program
from repro.dram.bank import _RowStress
from repro.dram.commands import (
    Command,
    CommandBurst,
    CommandKind,
    HammerBlock,
    RepeatBlock,
)
from repro.dram.module import DramModule
from repro.errors import CommandSequenceError, ProgramError

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
    byte, including the bank timing state, stress accounting, TRR
    sampling, and fault-model RNG consumption it leaves behind.

    Beyond dispatch, two trial-specific shortcuts hold the speedup:

    * **Skip-copy writes.** The plan remembers the exact array object it
      placed in bank storage per row, and its template. When that object
      is still stored, the write's template is the same, and
      the row's stress ledger records no materialized flips, the row
      provably equals the template (flips only materialize on read and are
      always ledgered), so the 1–8 KiB copy is skipped. Any external write
      replaces the object and any read that flips is ledgered, so mixing
      replays with interpreted programs stays exact; the shortcut disarms
      while refresh is enabled because ``refresh_row`` clears the ledger
      without restoring content.
    * **Ledger reads.** The victim is written with the pattern byte each
      trial, so its post-read XOR against the expected image is exactly
      the stress ledger's ``flipped`` set — no row copy, no ``unpackbits``.
      With on-die ECC enabled, words with exactly one flip read back
      corrected and are excluded, mirroring the module's ECC view.
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
        # Checked replays: a rigid plan's command stream is a pure time
        # translation of any earlier replay's stream (parametric in the
        # hammer count), so the full rule walk runs once and later
        # replays are validated from junction checks alone.
        self._certified: Optional[dict] = None

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

    @staticmethod
    def _segment_template(entries, anchor: float):
        """Per-(kind, bank) first/last occurrences of a logged segment,
        as ``(kind, bank, rel_time, rel_index)`` offsets from ``anchor``
        — the junction summary ``TimingChecker.feed_certified`` takes."""
        firsts: Dict[Tuple[str, int], Tuple[str, int, float, int]] = {}
        lasts: Dict[Tuple[str, int], Tuple[str, int, float, int]] = {}
        index = 0
        for entry in entries:
            kind = entry.kind.value
            if isinstance(entry, Command):
                t_first = t_last = entry.issued_at
                count = 1
            else:  # CommandBurst — rigid trials log nothing else here
                t_first = entry.start
                t_last = entry.last_at
                count = entry.count
            key = (kind, entry.bank)
            if key not in firsts:
                firsts[key] = (kind, entry.bank, t_first - anchor, index)
            lasts[key] = (
                kind, entry.bank, t_last - anchor, index + count - 1
            )
            index += count
        return tuple(firsts.values()), tuple(lasts.values()), index

    def _capture_template(self, log, start: int, hammer_end: float) -> None:
        """Summarize the stream a full-walk replay just logged.

        The prefix (before the hammer block) is anchored at its opening
        ACT; the tail at the hammer's end time. Both anchors translate
        rigidly between replays with nonzero hammer counts — the hammer
        leaves the bank a count-independent offset before its end — so
        the captured relative offsets certify every later replay against
        this log.
        """
        entries = log.entries
        split = next(
            (
                i for i in range(start, len(entries))
                if isinstance(entries[i], HammerBlock)
            ),
            None,
        )
        if split is None:
            return  # no hammer block logged; re-try on a later replay
        prefix = entries[start:split]
        tail = entries[split + 1:]
        if not prefix or not tail:
            return
        anchor = prefix[0].issued_at  # the opening ACT of a rigid plan
        self._certified = {
            "log": log,
            "prefix": (
                *self._segment_template(prefix, anchor),
                (start, split - start), anchor,
            ),
            "tail": (
                *self._segment_template(tail, hammer_end),
                (split + 1, len(entries) - split - 1), hammer_end,
            ),
        }

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
        trr = module._trr if module.mode.trr_enabled else None
        skip_ok = not module.refresh_enabled
        placed = self._placed
        flips: List[int] = []
        record = interpreter.record if interpreter.log is not None else None
        bank_index = self.bank_index
        # Checked replays of a rigid plan go through the certified fast
        # path: the first one runs the full per-command walk and captures
        # a junction template; later ones validate in O(1) per segment.
        # ``record_hammer`` stays live either way — the hammer count is a
        # per-call operand, so its block always feeds the checker.
        record_hammer = record
        cert = None
        capture_start = None
        hammer_end = 0.0
        if record is not None and hammer_count > 0:
            checker = interpreter._checker
            if checker.supports_certified:
                template = self._certified
                if (
                    template is not None
                    and template["log"] is interpreter.log
                ):
                    cert = template
                    record = None
                    t0 = max(
                        now,
                        last_precharge + tRP,
                        last_activate + tRC,
                    )
                    firsts, lasts, n_cmds, slc, anchor = cert["prefix"]
                    interpreter.log.append(
                        RepeatBlock(slc[0], slc[1], t0 - anchor, n_cmds)
                    )
                    if checker.feed_certified(firsts, lasts, n_cmds, t0):
                        checker.report.raise_if_violations()
                else:
                    capture_start = len(interpreter.log.entries)

        for step in self._steps:
            op = step[0]
            if op == OP_WRITE:
                physical = step[3]
                first_wr = max(now, opened_at + tRCD)
                finish = first_wr + write_tail
                if record is not None:
                    record(CommandBurst(
                        CommandKind.WR, first_wr, timing.tCCD_L_WR,
                        columns, bank=bank_index, row=step[2],
                    ))
                stress = stress_map.get(physical)
                mine = placed.get(physical)
                if (
                    skip_ok
                    and mine is not None
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
                if trr is not None:
                    trr.observe(step[3])
                if record is not None:
                    record(Command(
                        CommandKind.ACT, ready, bank=bank_index, row=step[2]
                    ))
                now = ready
            elif op == OP_PRE:
                ready = max(now, opened_at + tRAS, last_write_end + tWR)
                if step[2] is not None:
                    ready = max(ready, opened_at + step[2])
                if record is not None:
                    record(Command(CommandKind.PRE, ready, bank=bank_index))
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
                if record is not None:
                    record(CommandBurst(
                        CommandKind.RD, first_rd, timing.tCCD_L,
                        columns, bank=bank_index, row=step[2],
                    ))
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
            else:  # OP_HAMMER — the real module call keeps TRR/stress exact
                bank.last_precharge = last_precharge
                bank.last_activate = last_activate
                if record_hammer is not None:
                    first_act = max(now, last_precharge + tRP)
                now = module.bulk_hammer(
                    self.bank_index, step[2], hammer_count, step[3], now
                )
                hammer_end = now
                if record_hammer is not None and hammer_count > 0:
                    record_hammer(HammerBlock(
                        bank_index, tuple(step[2]), hammer_count, step[3],
                        tRP, first_act,
                    ))
                last_precharge = bank.last_precharge
                last_activate = bank.last_activate

        bank.open_row = None
        bank.opened_at = opened_at
        bank.last_activate = last_activate
        bank.last_precharge = last_precharge
        bank.last_write_end = last_write_end
        bank.activation_count += self._static_acts
        interpreter.now = now

        if cert is not None:
            firsts, lasts, n_cmds, slc, anchor = cert["tail"]
            interpreter.log.append(
                RepeatBlock(slc[0], slc[1], hammer_end - anchor, n_cmds)
            )
            if checker.feed_certified(firsts, lasts, n_cmds, hammer_end):
                checker.report.raise_if_violations()
        elif capture_start is not None:
            self._capture_template(
                interpreter.log, capture_start, hammer_end
            )

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

        if module.mode.ecc_enabled and flips:
            per_word: Dict[int, int] = {}
            for bit in flips:
                word = bit // 64
                per_word[word] = per_word.get(word, 0) + 1
            flips = [bit for bit in flips if per_word[bit // 64] != 1]
        return flips


def compile_trial(program: Program, module: DramModule) -> CompiledTrial:
    """Compile a single-bank Algorithm 1 trial for hammer-count replay."""
    return CompiledTrial(program, module)
