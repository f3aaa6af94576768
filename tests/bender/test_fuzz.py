"""Robustness fuzzing: random programs never corrupt the interpreter.

Random instruction sequences — including ones that violate command
sequencing — must either execute or raise a library error
(:class:`~repro.errors.ReproError`); they must never raise foreign
exceptions, move time backwards, or corrupt stored data of untouched rows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bender.interpreter import Interpreter
from repro.bender.isa import Act, Hammer, Pre, ReadRow, Wait, WriteRow
from repro.bender.program import Program
from repro.errors import ReproError
from tests.conftest import make_module

instructions = st.one_of(
    st.builds(Act, bank=st.integers(0, 1), row=st.integers(0, 63)),
    st.builds(Pre, bank=st.integers(0, 1)),
    st.builds(
        WriteRow,
        bank=st.integers(0, 1),
        row=st.integers(0, 63),
        fill=st.integers(0, 255),
    ),
    st.builds(
        ReadRow,
        bank=st.integers(0, 1),
        row=st.integers(0, 63),
        tag=st.uuids().map(str),
    ),
    st.builds(Wait, duration_ns=st.floats(min_value=0.0, max_value=1e5)),
    st.builds(
        Hammer,
        bank=st.integers(0, 1),
        rows=st.lists(st.integers(0, 63), min_size=1, max_size=2).map(tuple),
        count=st.integers(0, 2000),
        t_agg_on=st.floats(min_value=35.0, max_value=1e4),
    ),
)


@given(sequence=st.lists(instructions, max_size=25))
@settings(max_examples=120, deadline=None)
def test_random_programs_fail_cleanly(sequence):
    module = make_module(seed=99)
    interpreter = Interpreter(module)

    # A sentinel row the fuzzed program never touches (rows <= 63 only;
    # 200's physical address also stays clear of their blast radius).
    sentinel_data = np.full(module.geometry.row_bytes, 0x3C, dtype=np.uint8)
    t = module.timing
    module.activate(0, 200, 10.0)
    module.write_row(0, 200, sentinel_data, 10.0 + t.tRCD + 100)
    module.precharge(0, 10.0 + t.tRCD + 100 + t.tWR)
    interpreter.now = 10_000.0

    before = interpreter.now
    try:
        result = interpreter.run(Program(name="fuzz", instructions=sequence))
    except ReproError:
        pass  # clean library failure is acceptable
    else:
        assert result.elapsed_ns >= 0
    assert interpreter.now >= before

    # The sentinel row is untouched regardless of what the program did.
    for bank in module.banks:
        if bank.open_row is not None:
            bank.precharge(
                max(interpreter.now, bank.opened_at + t.tRAS,
                    bank.last_write_end + t.tWR) + 1.0
            )
    late = interpreter.now + 1e6
    module.activate(0, 200, late)
    data = module.read_row(0, 200, late + t.tRCD)
    assert np.array_equal(data, sentinel_data)
