"""Equality tests for the Bender trace compiler.

The scalar :class:`~repro.bender.interpreter.Interpreter` is the
specification: ``DramBender.run_trial`` replays a compiled plan of
``DramBender.trial_program`` and must match interpreting that program
(``tests.differential.harness.interpreted_trial``) bit for bit — same
flips, same clock, same command counts, same device state — and malformed
programs must fail with the interpreter's exception classes (raised up
front at compile time instead of mid-run). Every plan's timing is
certified at compile time against its protocol's full rule table; the
stream the certificate feeds is pinned here to the one interpreted
trials send.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bender.compiler import compile_trial
from repro.bender.host import DramBender
from repro.bender.interpreter import Interpreter
from repro.bender.isa import Hammer, ReadRow, WriteRow
from repro.bender.program import Program, ProgramBuilder
from repro.core.config import TestConfig
from repro.core.patterns import ALL_PATTERNS, CHECKERED0, ROWSTRIPE0
from repro.chips import build_module
from repro.chips.catalog import EXTENDED_SPECS
from repro.core.rdt import FastRdtMeter, HammerSweep, RdtMeter
from repro.dram.checker import _tol
from repro.errors import (
    CommandSequenceError,
    ProgramError,
    ReproError,
    TimingViolationError,
)
from tests.conftest import make_module
from tests.differential.harness import (
    expand_stream,
    interpreted_trial,
    recording,
    with_timing,
)


def fresh_module(seed=1234, **kwargs):
    module = make_module(seed=seed, **kwargs)
    module.disable_interference_sources()
    return module


def snapshot(interpreter):
    """Observable interpreter + device state after a run."""
    module = interpreter.module
    state = {"now": interpreter.now, "counts": dict(interpreter.total_counts)}
    for index in range(module.geometry.n_banks):
        bank = module.bank(index)
        state[index] = (
            bank.open_row,
            bank.opened_at,
            bank.last_activate,
            bank.last_precharge,
            bank.last_write_end,
            bank.activation_count,
            sorted((row, bytes(data)) for row, data in bank._storage.items()),
        )
    return state


def assert_same_error(program):
    """Interpreting ``program`` and compiling it raise the same class."""
    with pytest.raises(ReproError) as scalar:
        Interpreter(fresh_module()).run(program)
    with pytest.raises(ReproError) as compiled:
        compile_trial(program, fresh_module())
    assert type(compiled.value) is type(scalar.value)


class InterpretedBender(DramBender):
    """A host whose trials run on the interpreter (the oracle route)."""

    def run_trial(self, bank, victim, pattern, hammer_count, t_agg_on):
        return interpreted_trial(
            self, bank, victim, pattern, hammer_count, t_agg_on
        )


# ---------------------------------------------------------------------------
# Randomized property equality
# ---------------------------------------------------------------------------

trials = st.lists(
    st.tuples(
        st.integers(0, 1),  # bank
        st.integers(0, 1023),  # victim (edge rows included)
        st.sampled_from(ALL_PATTERNS),
        st.integers(0, 6000),  # hammer count
        st.sampled_from([1.0, 35.0, 300.0, 7800.0]),  # tAggOn
    ),
    min_size=1,
    max_size=6,
)


def assert_trials_match(sequence, seed, radius):
    """``run_trial`` (a plan replay) equals the interpreted trial program
    for every trial of ``sequence``, and both hosts end in the same state."""
    oracle = DramBender(fresh_module(seed=seed), init_radius=radius)
    replay = DramBender(fresh_module(seed=seed), init_radius=radius)
    for operands in sequence:
        assert replay.run_trial(*operands) == interpreted_trial(
            oracle, *operands
        )
    assert snapshot(replay.interpreter) == snapshot(oracle.interpreter)


# Builder-level operations. write/read idioms emit valid ACT/op/PRE bursts;
# raw act/pre/read ops inject the interpreter's error paths (ACT while open,
# ReadRow with no open row, row mismatches, hammer while open); rows up to
# 63 reach past the test geometry (AddressError); a tiny tag alphabet makes
# duplicate read tags common.
ops = st.one_of(
    st.tuples(st.just("act"), st.integers(0, 1), st.integers(0, 63)),
    st.tuples(st.just("pre"), st.integers(0, 1),
              st.one_of(st.none(), st.floats(35.0, 500.0))),
    st.tuples(st.just("wait"), st.floats(0.0, 1e5)),
    st.tuples(st.just("write"), st.integers(0, 1), st.integers(0, 63),
              st.integers(0, 255)),
    st.tuples(st.just("read"), st.integers(0, 1), st.integers(0, 63),
              st.sampled_from(["a", "b", "c", "d"])),
    st.tuples(st.just("raw_read"), st.integers(0, 1), st.integers(0, 63),
              st.sampled_from(["a", "b", "c", "d"])),
    st.tuples(st.just("hammer"), st.integers(0, 1),
              st.lists(st.integers(0, 63), min_size=1, max_size=2),
              st.integers(0, 500), st.floats(35.0, 1e3)),
)

# Trial-shaped programs on bank 0 (writes, one hammer, a read of a written
# row) with a few random operations spliced in, so that some compile and
# replay.
@st.composite
def trial_shaped(draw):
    writes = draw(st.lists(
        st.tuples(st.just("write"), st.just(0), st.integers(0, 63),
                  st.integers(0, 255)),
        min_size=1, max_size=4,
    ))
    hammer = draw(st.tuples(
        st.just("hammer"), st.just(0),
        st.lists(st.integers(0, 63), min_size=1, max_size=2),
        st.integers(0, 500), st.floats(35.0, 1e3),
    ))
    read = ("read", 0, draw(st.sampled_from(writes))[2], "victim")
    sequence = writes + [hammer, read]
    at = draw(st.integers(0, len(sequence)))
    return sequence[:at] + draw(st.lists(ops, max_size=2)) + sequence[at:]


def build(sequence):
    builder = ProgramBuilder("prop")
    for op in sequence:
        kind = op[0]
        if kind == "act":
            builder.act(op[1], op[2])
        elif kind == "pre":
            builder.pre(op[1], op[2])
        elif kind == "wait":
            builder.wait(op[1])
        elif kind == "write":
            builder.write_row(op[1], op[2], op[3])
        elif kind == "read":
            builder.read_row(op[1], op[2], op[3])
        elif kind == "raw_read":
            builder._program.instructions.append(ReadRow(op[1], op[2], op[3]))
        elif kind == "hammer":
            builder.hammer(op[1], op[2], op[3], op[4])
    return builder.build()


@given(sequence=st.one_of(st.lists(ops, max_size=16), trial_shaped()))
@settings(max_examples=200, deadline=None)
def test_compile_trial_raises_like_interpreter_on_random_programs(sequence):
    """Random builder programs, malformed ones included. Where the
    interpreter raises, ``compile_trial`` raises the same class; where it
    runs, ``compile_trial`` either refuses a program that is not a trial
    with ``ProgramError`` or returns a plan whose replay at the program's
    hammer count leaves the interpreter's state and reports the read row's
    flips against its last written image."""
    program = build(sequence)
    scalar = Interpreter(fresh_module())
    scalar_error = None
    try:
        result = scalar.run(program)
    except ReproError as exc:
        scalar_error = exc
    module = fresh_module()
    try:
        plan = compile_trial(program, module)
    except ReproError as exc:
        expected = ProgramError if scalar_error is None else type(scalar_error)
        assert type(exc) is expected, (scalar_error, exc)
        return
    assert scalar_error is None
    (hammer,) = [step for step in program if isinstance(step, Hammer)]
    (read,) = [step for step in program if isinstance(step, ReadRow)]
    before_read = program.instructions[:program.instructions.index(read)]
    image = [
        step for step in before_read
        if isinstance(step, WriteRow) and step.row == read.row
    ][-1].data(module.geometry.row_bytes)
    delta = np.unpackbits(result.reads[read.tag] ^ image, bitorder="little")
    replay = Interpreter(module)
    assert plan.replay(replay, hammer.count) == list(np.nonzero(delta)[0])
    assert snapshot(replay) == snapshot(scalar)


@given(sequence=trials, radius=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_compiled_matches_interpreter_on_random_programs(sequence, radius):
    assert_trials_match(sequence, seed=1234, radius=radius)


@given(sequence=trials, seed=st.integers(0, 2**16), radius=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_compiled_matches_interpreter_across_seeds(sequence, seed, radius):
    assert_trials_match(sequence, seed=seed, radius=radius)


def test_command_estimate_matches_executed_counts():
    """``Program.command_estimate`` equals the executed command totals for
    builder-generated sweep programs (Appendix A accounting), on the
    interpreter and on a trial plan replayed at the same hammer count."""
    module = fresh_module()
    columns = module.geometry.columns_per_row
    for hammers in (0, 1, 777):
        builder = ProgramBuilder("sweep")
        builder.initialize_neighborhood(
            0, 30, [29, 31], CHECKERED0, module.geometry.n_rows, radius=3
        )
        builder.double_sided_round(0, [29, 31], hammers, module.timing.tRAS)
        builder.read_row(0, 30, "victim")
        program = builder.build()

        result = Interpreter(fresh_module()).run(program)
        assert sum(result.command_counts.values()) == program.command_estimate(
            columns
        )

        interpreter = Interpreter(module)
        compile_trial(program, module).replay(interpreter, hammers)
        assert sum(interpreter.total_counts.values()) == (
            program.command_estimate(columns)
        )
        module = fresh_module()


# ---------------------------------------------------------------------------
# Error paths surfaced at compile time
# ---------------------------------------------------------------------------


def test_duplicate_read_tags_raise_like_interpreter():
    builder = ProgramBuilder("dup")
    builder.write_row(0, 5, 0xAA)
    builder.read_row(0, 5, "same").read_row(0, 5, "same")
    assert_same_error(builder.build())


def test_read_without_open_row_raises_like_interpreter():
    assert_same_error(
        Program(name="no-open", instructions=[ReadRow(0, 5, "t")])
    )


HAMMER = ("hammer", 0, [4, 6], 10, 35.0)


@pytest.mark.parametrize(
    "sequence",
    [
        [("write", 0, 5, 1), ("wait", 10.0), HAMMER, ("read", 0, 5, "v")],
        [("write", 0, 5, 1), ("pre", 0, None), HAMMER, ("read", 0, 5, "v")],
        [("write", 0, 5, 1), HAMMER, ("read", 0, 5, "v"), ("act", 0, 7)],
        [("write", 0, 5, 1), HAMMER, ("write", 0, 7, 2), ("read", 0, 5, "v")],
        [("act", 0, 3), ("pre", 0, None), ("write", 0, 5, 1), HAMMER,
         ("read", 0, 5, "v")],
        [HAMMER, ("write", 0, 5, 1), ("read", 0, 5, "v")],
        [("write", 0, 5, 1), HAMMER, ("read", 0, 9, "v")],
        [("write", 0, 5, 1), ("write", 1, 5, 1), HAMMER, ("read", 0, 5, "v")],
        [("write", 0, 5, 1), HAMMER, HAMMER, ("read", 0, 5, "v")],
    ],
    ids=[
        "wait", "idle-pre", "ends-open", "write-after-hammer",
        "pre-before-write", "hammer-first", "read-unwritten", "two-banks",
        "two-hammers",
    ],
)
def test_compile_trial_refuses_programs_that_are_not_trials(sequence):
    """Valid programs outside the trial shape run on the interpreter but
    do not compile."""
    program = build(sequence)
    Interpreter(fresh_module()).run(program)
    with pytest.raises(ProgramError):
        compile_trial(program, fresh_module())


def test_compiled_requires_closed_bank_at_entry():
    bender = DramBender(fresh_module())
    module = bender.module
    plan = bender.compiled_trial(0, 40, CHECKERED0, module.timing.tRAS)
    # Open the trial's bank behind the plan's back.
    module.activate(0, 9, bender.interpreter.now + 10.0)
    with pytest.raises(CommandSequenceError):
        plan.replay(bender.interpreter, 100)


def test_compiled_rejects_foreign_module():
    bender = DramBender(fresh_module())
    plan = bender.compiled_trial(0, 40, CHECKERED0, 35.0)
    with pytest.raises(ProgramError):
        plan.replay(Interpreter(fresh_module()), 100)


# ---------------------------------------------------------------------------
# Trial plans and the faithful meter
# ---------------------------------------------------------------------------


def test_compiled_trial_matches_run_trial_over_hammer_range():
    """``run_trial`` (a plan replay) against the interpreted trial."""
    scalar = DramBender(fresh_module())
    compiled = DramBender(fresh_module())
    t_on = scalar.module.timing.tRAS
    for count in (0, 1, 500, 1500, 2500):
        flips_scalar = interpreted_trial(scalar, 0, 40, CHECKERED0, count, t_on)
        flips_compiled = compiled.run_trial(0, 40, CHECKERED0, count, t_on)
        assert flips_compiled == flips_scalar
    assert compiled.interpreter.now == scalar.interpreter.now
    assert dict(compiled.interpreter.total_counts) == dict(
        scalar.interpreter.total_counts
    )


def test_compiled_trial_with_interference_sources_enabled():
    # TRR + ECC stay on: the compiled replay must drive the same TRR
    # sampler decisions and the same on-die ECC view of the flips.
    scalar = DramBender(make_module(seed=77))
    compiled = DramBender(make_module(seed=77))
    t_on = scalar.module.timing.tRAS
    for count in (800, 1600, 2400):
        assert compiled.run_trial(
            0, 52, ROWSTRIPE0, count, t_on
        ) == interpreted_trial(scalar, 0, 52, ROWSTRIPE0, count, t_on)
    assert compiled.module._trr.counts == scalar.module._trr.counts


def test_mixed_scalar_and_compiled_trials_share_state():
    """Interpreted trials between replays on one host (they rewrite the
    plan's rows) leave every later replay exact."""
    scalar = DramBender(fresh_module())
    mixed = DramBender(fresh_module())
    t_on = scalar.module.timing.tRAS
    for index, count in enumerate((300, 900, 1500, 2100)):
        trial = (
            mixed.run_trial if index % 2 else partial(interpreted_trial, mixed)
        )
        assert trial(0, 44, CHECKERED0, count, t_on) == interpreted_trial(
            scalar, 0, 44, CHECKERED0, count, t_on
        )
    assert snapshot(mixed.interpreter) == snapshot(scalar.interpreter)


def test_rdt_meter_series_compiled_equals_scalar():
    config_of = lambda module: TestConfig(
        CHECKERED0, t_agg_on_ns=module.timing.tRAS
    )
    scalar_bender = InterpretedBender(fresh_module())
    compiled_bender = DramBender(fresh_module())
    sweep = HammerSweep.from_guess(
        FastRdtMeter(fresh_module()).guess_rdt(40, config_of(scalar_bender.module))
    )
    scalar = RdtMeter(scalar_bender).measure_series(
        40, config_of(scalar_bender.module), 12, sweep=sweep
    )
    compiled = RdtMeter(compiled_bender).measure_series(
        40, config_of(compiled_bender.module), 12, sweep=sweep
    )
    np.testing.assert_array_equal(compiled.values, scalar.values)
    assert compiled_bender.interpreter.now == scalar_bender.interpreter.now


# ---------------------------------------------------------------------------
# The host's one cached plan
# ---------------------------------------------------------------------------


def test_host_recompiles_its_one_plan_exactly_across_victims():
    """Trials that alternate between victims recompile the host's single
    plan, repeats of one victim reuse it, and every trial matches the
    interpreted oracle."""
    oracle = DramBender(fresh_module())
    replay = DramBender(fresh_module())
    t_on = replay.module.timing.tRAS
    victims = [40, 40, 52, 40, 70, 70, 52, 40]
    plans = []
    for index, victim in enumerate(victims):
        count = 400 + 700 * index
        assert replay.run_trial(0, victim, CHECKERED0, count, t_on) == (
            interpreted_trial(oracle, 0, victim, CHECKERED0, count, t_on)
        )
        plans.append(replay._trial_plan)
    for index in range(1, len(victims)):
        assert (plans[index] is plans[index - 1]) == (
            victims[index] == victims[index - 1]
        )
    assert snapshot(replay.interpreter) == snapshot(oracle.interpreter)


# ---------------------------------------------------------------------------
# The compile-time timing certificate
# ---------------------------------------------------------------------------


def catalog_module(module_id, **overrides):
    module = build_module(module_id, seed=7)
    module.disable_interference_sources()
    return with_timing(module, **overrides) if overrides else module


@pytest.mark.parametrize(
    "module_id", [device.module_id for device in EXTENDED_SPECS]
)
def test_every_catalog_device_compiles_under_the_full_table(module_id):
    """DDR4, DDR5 and HBM2 trial plans meet every rule of their protocol,
    tFAW windows included, at the paper's init radius and both ends of
    the tAggOn range."""
    module = catalog_module(module_id)
    bender = DramBender(module, init_radius=8)
    for t_agg_on in (module.timing.tRAS, module.timing.max_row_open):
        for victim in (0, 100):
            plan = bender.compiled_trial(0, victim, CHECKERED0, t_agg_on)
            assert max(plan.certified_counts) * len(
                bender.aggressors_for(0, victim)
            ) >= 4


@pytest.mark.parametrize("victim", [0, 100], ids=["edge", "inner"])
def test_certificate_feeds_every_junction(victim):
    """Every ordered pair ``(a, b)`` of the certified hammer-count
    classes ``0..k`` follows back to back in the certified stream, so a
    replay's end is checked against the start of every class after it,
    descending junctions (``k -> 0``, ``1 -> 0``) included."""
    module = catalog_module("M1")
    bender = DramBender(module, init_radius=3)
    counts = bender.compiled_trial(0, victim, CHECKERED0, 35.0).certified_counts
    k = max(counts)
    assert k == -(-4 // len(bender.aggressors_for(0, victim)))
    assert set(counts) == set(range(k + 1))
    assert set(zip(counts, counts[1:])) == {
        (a, b) for a in range(k + 1) for b in range(k + 1)
    }


@pytest.mark.parametrize("module_id", ["M1", "D0", "Chip0"])
@pytest.mark.parametrize("rule,factor", [("tFAW", 4.0), ("tRRD_L", 1.5)])
def test_compile_refuses_a_preset_the_trial_breaks(module_id, rule, factor):
    """A trial's hammer loop activates every tRC, so a four-activate
    window of 4 tRC or a same-group ACT gap of 1.5 tRC cannot hold: the
    plan is refused at compile time, naming the rule. Neither rule is one
    the interpreter paces for."""
    module = catalog_module(module_id)
    module = with_timing(module, **{rule: factor * module.timing.tRC})
    bender = DramBender(module)
    with pytest.raises(TimingViolationError, match=f"violates {rule}:"):
        bender.compiled_trial(0, 100, CHECKERED0, module.timing.tRAS)


@pytest.mark.parametrize("module_id", ["M1", "D0", "Chip0"])
@pytest.mark.parametrize("victim", [0, 100], ids=["edge", "inner"])
@pytest.mark.parametrize("t_agg_on", [35.0, 300.0])
def test_certified_stream_is_the_interpreted_stream(module_id, victim, t_agg_on):
    """The stream the certificate feeds equals, command for command, the
    stream interpreted trials send at the same hammer counts from a
    fresh module: every hammer-count class, back to back, within the
    checker's float slack."""
    module = catalog_module(module_id)
    bender = DramBender(module, init_radius=3)
    plan = bender.compiled_trial(0, victim, CHECKERED0, t_agg_on)
    with recording(module) as stream:
        for count in plan.certified_counts:
            bender.interpreter.run(
                bender.trial_program(0, victim, CHECKERED0, count, t_agg_on)
            )
    certified = list(expand_stream(plan.command_stream(plan.certified_counts)))
    recorded = list(expand_stream(stream))
    assert len(certified) == len(recorded)
    for ours, theirs in zip(certified, recorded):
        assert (ours.kind, ours.bank, ours.row, ours.column) == (
            theirs.kind, theirs.bank, theirs.row, theirs.column
        )
        assert abs(ours.issued_at - theirs.issued_at) <= _tol(
            theirs.issued_at
        )
