"""Tests for the Bender ISA and program builder."""

import numpy as np
import pytest

from repro.bender.isa import Hammer, Wait, WriteRow
from repro.bender.interpreter import Interpreter
from repro.bender.program import ProgramBuilder
from repro.core.patterns import CHECKERED0
from repro.errors import ProgramError
from tests.conftest import make_module


def test_write_row_fill_byte():
    instruction = WriteRow(0, 5, fill=0x3C)
    data = instruction.data(16)
    assert data.shape == (16,)
    assert np.all(data == 0x3C)


def test_write_row_explicit_image():
    payload = bytes(range(16))
    instruction = WriteRow(0, 5, fill=payload)
    assert np.array_equal(instruction.data(16), np.frombuffer(payload, np.uint8))
    with pytest.raises(ProgramError):
        instruction.data(8)


def test_write_row_invalid_fill():
    with pytest.raises(ProgramError):
        WriteRow(0, 5, fill=300).data(16)


def test_wait_rejects_negative():
    with pytest.raises(ProgramError):
        Wait(-1.0)


def test_hammer_validation():
    with pytest.raises(ProgramError):
        Hammer(0, [], 10, 35.0)
    with pytest.raises(ProgramError):
        Hammer(0, [1], -1, 35.0)
    for t_agg_on in (0.0, float("nan"), float("inf")):
        with pytest.raises(ProgramError):
            Hammer(0, [1], 10, t_agg_on)
    hammer = Hammer(0, [1, 3], 10, 35.0)
    assert hammer.total_activations == 20


def test_builder_idioms_produce_expected_sequence():
    builder = ProgramBuilder("t")
    builder.write_row(0, 5, 0xFF).read_row(0, 5, "v")
    program = builder.build()
    kinds = [type(i).__name__ for i in program]
    assert kinds == ["Act", "WriteRow", "Pre", "Act", "ReadRow", "Pre"]


def test_initialize_neighborhood_rows():
    builder = ProgramBuilder()
    builder.initialize_neighborhood(
        0, victim=100, aggressors=[99, 101], pattern=CHECKERED0,
        n_rows=1024, radius=3,
    )
    writes = [i for i in builder.build() if isinstance(i, WriteRow)]
    rows = {w.row: w.fill for w in writes}
    assert rows[100] == 0x55
    assert rows[99] == rows[101] == 0xAA
    # V +/- [2:3] hold the victim byte (Table 2).
    assert rows[98] == rows[102] == rows[97] == rows[103] == 0x55


def test_initialize_neighborhood_edge_of_bank():
    builder = ProgramBuilder()
    builder.initialize_neighborhood(
        0, victim=0, aggressors=[1], pattern=CHECKERED0, n_rows=1024, radius=2
    )
    writes = [i for i in builder.build() if isinstance(i, WriteRow)]
    assert {w.row for w in writes} == {0, 1, 2}


def test_double_sided_round_rejects_many_aggressors():
    builder = ProgramBuilder()
    with pytest.raises(ProgramError):
        builder.double_sided_round(0, [1, 2, 3], 10, 35.0)


def test_command_estimate():
    builder = ProgramBuilder()
    builder.write_row(0, 5, 0).hammer(0, [4, 6], 10, 35.0).read_row(0, 5, "v")
    module = make_module()
    columns = module.geometry.columns_per_row
    result = Interpreter(module).run(builder.build())
    # ACT+PRE (2) + one write per column + 40 hammer commands + ACT+PRE (2)
    # + one read per column
    assert result.command_counts == {
        "ACT": 22, "PRE": 22, "WR": columns, "RD": columns
    }
