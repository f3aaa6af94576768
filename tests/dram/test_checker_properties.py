"""Property tests for the table-driven TimingChecker.

Two invariants, over randomized inputs:

* **Soundness** — command streams that are legal *by construction* (the
  Bender interpreter schedules every command at the earliest JEDEC-legal
  time, recorded by :func:`tests.differential.harness.recording`) never
  violate the rules that scheduler paces for, on any protocol.
* **Completeness** — a stream with one injected too-early command always
  produces a violation naming the violated rule at the exact command
  index, for every same-bank min-gap rule of every protocol preset.
  Hypothesis shrinks any failure to the minimal (rule, gap) example.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bender.interpreter import Interpreter
from repro.bender.isa import ReadRow, WriteRow
from repro.bender.program import ProgramBuilder
from repro.chips import build_module
from repro.dram.checker import EPS, TimingChecker
from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import DramGeometry
from repro.dram.timing import (
    PRESETS,
    RULE_MIN_GAP,
    SCOPE_SAME_BANK,
    rule_table,
)
from tests.differential.harness import expand_stream, recording

#: Rules the interpreter's scheduler guarantees by construction: it keeps
#: one global cursor plus per-bank timestamps, so same-bank row-cycle
#: constraints and refresh recovery hold on every stream it emits.
#: Rank-level ACT pacing (tRRD_S/L, tFAW) and column cadence across
#: instructions (tCCD_*) are not scheduled for — random programs put
#: co-timed ACTs on different banks — and tREFI cannot bound streams
#: that (per the methodology) disable refresh. A compiled trial is
#: certified against the whole table (``tests/bender/test_compiler.py``).
CHECKED_RULES = ("tRC", "tRAS", "tRP", "tRCD", "tRTP", "tWR", "tRFC")

#: One catalog device per protocol (compact build, real rule table).
_MODULE_IDS = ("M1", "D0", "Chip0")

_MODULES: dict = {}


def _module(module_id: str):
    # Reused across examples: program legality depends only on the
    # interpreter's scheduling, never on accumulated bank state (every
    # generated program closes all banks before it ends). Rebuild if a
    # prior example aborted mid-program and left a bank open.
    cached = _MODULES.get(module_id)
    if cached is None or any(
        bank.open_row is not None for bank in cached.banks
    ):
        cached = build_module(module_id, seed=7)
        _MODULES[module_id] = cached
    return cached


@st.composite
def _legal_programs(draw):
    """A random well-formed Bender program: the interpreter schedules it
    tightly, so the synthesized command stream is legal by construction."""
    module_id = draw(st.sampled_from(_MODULE_IDS))
    module = _module(module_id)
    n_banks = module.geometry.n_banks
    n_rows = module.geometry.n_rows
    builder = ProgramBuilder("property")
    open_rows: dict = {}
    tag = 0
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        bank = draw(st.integers(min_value=0, max_value=n_banks - 1))
        if bank in open_rows:
            op = draw(st.sampled_from(["pre", "read", "write", "wait"]))
            if op == "pre":
                builder.pre(bank)
                del open_rows[bank]
            elif op == "read":
                tag += 1
                builder._program.instructions.append(
                    ReadRow(bank, open_rows[bank], f"t{tag}")
                )
            elif op == "write":
                builder._program.instructions.append(
                    WriteRow(bank, open_rows[bank], 0xA5)
                )
            else:
                builder.wait(draw(st.floats(
                    min_value=1.0, max_value=200.0,
                    allow_nan=False, allow_infinity=False,
                )))
        else:
            op = draw(st.sampled_from(["act", "hammer", "wait"]))
            if op == "act":
                row = draw(st.integers(min_value=0, max_value=n_rows - 1))
                builder.act(bank, row)
                open_rows[bank] = row
            elif op == "hammer":
                rows = draw(st.lists(
                    st.integers(min_value=0, max_value=n_rows - 1),
                    min_size=1, max_size=2, unique=True,
                ))
                t_ras = float(module.timing.tRAS)
                builder.hammer(
                    bank, rows,
                    draw(st.integers(min_value=1, max_value=30)),
                    draw(st.floats(
                        min_value=t_ras, max_value=t_ras + 40.0,
                        allow_nan=False, allow_infinity=False,
                    )),
                )
            else:
                builder.wait(draw(st.floats(
                    min_value=1.0, max_value=200.0,
                    allow_nan=False, allow_infinity=False,
                )))
    for bank in sorted(open_rows):
        builder.pre(bank)
    return module, builder.build()


@settings(max_examples=40, deadline=None)
@given(workload=_legal_programs())
def test_legal_schedules_never_flag(workload):
    module, program = workload
    with recording(module) as stream:
        Interpreter(module).run(program)
    checker = TimingChecker(
        timing=module.timing, geometry=module.geometry,
        rule_names=CHECKED_RULES,
    )
    for entry in stream:
        checker.feed(entry)
    assert checker.report.ok, checker.report.describe()
    assert checker.report.n_commands == sum(1 for _ in expand_stream(stream))


# ----------------------------------------------------------------------
# Injected violations
# ----------------------------------------------------------------------

def _constructible(rule) -> bool:
    """Same-bank min-gap rules whose command pair we can synthesize."""
    return (
        rule.kind == RULE_MIN_GAP
        and rule.scope == SCOPE_SAME_BANK
        and rule.delay > 0.0
    )


_INJECTABLE = [
    (preset_name, rule)
    for preset_name, params in sorted(PRESETS.items())
    for rule in rule_table(params)
    if _constructible(rule)
]


def _command(kind_name: str, at: float) -> Command:
    # TimingRule.prev/curr hold the command-kind *value* strings.
    kind = CommandKind(kind_name)
    if kind is CommandKind.ACT:
        return Command(kind, at, bank=0, row=0)
    return Command(kind, at, bank=0)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_INJECTABLE),
    fraction=st.floats(
        min_value=0.05, max_value=0.95,
        allow_nan=False, allow_infinity=False,
    ),
)
def test_injected_violation_flags_rule_and_index(case, fraction):
    preset_name, rule = case
    params = PRESETS[preset_name]
    geometry = DramGeometry(
        n_banks=4, n_rows=64, protocol=params.protocol, n_bank_groups=2
    )
    early = rule.delay * fraction

    checker = TimingChecker(timing=params, geometry=geometry)
    checker.feed(_command(rule.prev, 0.0))
    checker.feed(_command(rule.curr, early))
    assert any(
        violation.index == 1 and violation.rule == rule.name
        for violation in checker.report.violations
    ), (
        f"{preset_name}: {rule.name} gap {early:.3f} < {rule.delay:.3f} "
        f"not flagged at command #1"
    )

    # The boundary is legal: the exact delay never flags this rule.
    boundary = TimingChecker(timing=params, geometry=geometry)
    boundary.feed(_command(rule.prev, 0.0))
    boundary.feed(_command(rule.curr, rule.delay))
    assert not any(
        violation.rule == rule.name
        for violation in boundary.report.violations
    )


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(_INJECTABLE),
    jitter=st.floats(
        min_value=0.0, max_value=1000.0,
        allow_nan=False, allow_infinity=False,
    ),
)
def test_gap_at_or_past_delay_never_flags(case, jitter):
    preset_name, rule = case
    params = PRESETS[preset_name]
    geometry = DramGeometry(
        n_banks=4, n_rows=64, protocol=params.protocol, n_bank_groups=2
    )
    checker = TimingChecker(timing=params, geometry=geometry)
    checker.feed(_command(rule.prev, 0.0))
    checker.feed(_command(rule.curr, rule.delay + jitter))
    assert not any(
        violation.rule == rule.name
        for violation in checker.report.violations
    )
    # Float-tolerance guard: a gap within EPS of the delay stays legal.
    tolerant = TimingChecker(timing=params, geometry=geometry)
    tolerant.feed(_command(rule.prev, 0.0))
    tolerant.feed(_command(rule.curr, rule.delay - EPS / 2))
    assert not any(
        violation.rule == rule.name
        for violation in tolerant.report.violations
    )
