"""Tests for the program interpreter's scheduling and accounting."""

import numpy as np
import pytest

from repro.bender.interpreter import Interpreter
from repro.bender.program import ProgramBuilder
from repro.errors import ProgramError
from tests.conftest import make_module


def test_write_then_read_roundtrip():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.write_row(0, 5, 0xC3).read_row(0, 5, "out")
    result = interp.run(builder.build())
    assert np.all(result.reads["out"] == 0xC3)
    assert result.elapsed_ns > 0


def test_command_counts():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.write_row(0, 5, 0).hammer(0, [4, 6], 25, module.timing.tRAS)
    result = interp.run(builder.build())
    columns = module.geometry.columns_per_row
    assert result.count("WR") == columns
    assert result.count("ACT") == 1 + 50
    assert result.count("PRE") == 1 + 50


def test_hammer_timing_matches_analytic():
    module = make_module()
    t = module.timing
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.hammer(0, [4, 6], 100, t.tRAS)
    result = interp.run(builder.build())
    assert result.elapsed_ns == pytest.approx(100 * 2 * (t.tRAS + t.tRP))


def test_wait_advances_clock():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.wait(123.0)
    assert interp.run(builder.build()).elapsed_ns == 123.0


def test_rowpress_min_on_time():
    module = make_module()
    t = module.timing
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.act(0, 5).pre(0, min_on_ns=500.0)
    result = interp.run(builder.build())
    assert result.elapsed_ns >= 500.0


def test_column_without_open_row_rejected():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder._program.instructions.append(
        __import__("repro.bender.isa", fromlist=["ReadRow"]).ReadRow(0, 5, "x")
    )
    with pytest.raises(ProgramError):
        interp.run(builder.build())


def test_duplicate_read_tag_rejected():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.read_row(0, 5, "v").read_row(0, 6, "v")
    with pytest.raises(ProgramError):
        interp.run(builder.build())


def test_time_persists_across_runs():
    module = make_module()
    interp = Interpreter(module)
    builder = ProgramBuilder()
    builder.wait(10.0)
    interp.run(builder.build())
    interp.run(builder.build())
    assert interp.now == 20.0
    assert interp.total_counts == {}
