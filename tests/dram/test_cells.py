"""Tests for true-/anti-cell layouts."""

import numpy as np
import pytest

from repro.dram.cells import CellLayout, CellLayoutKind
from repro.errors import ConfigurationError
from tests.differential.harness import (
    bit_is_true_cell,
    bytes_to_bits,
    charged_mask,
)


def test_all_true_rows():
    layout = CellLayout(CellLayoutKind.ALL_TRUE)
    assert layout.row_is_true_cell(0)
    assert layout.row_is_true_cell(12345)


def test_row_blocks_alternate():
    layout = CellLayout(CellLayoutKind.ROW_BLOCKS, block_rows=512)
    assert layout.row_is_true_cell(0)
    assert not layout.row_is_true_cell(512)
    assert layout.row_is_true_cell(1024)


def test_alternate_rows():
    layout = CellLayout(CellLayoutKind.ALTERNATE_ROWS)
    assert layout.row_is_true_cell(0)
    assert not layout.row_is_true_cell(1)


def test_mixed_has_no_row_polarity():
    layout = CellLayout(CellLayoutKind.MIXED)
    with pytest.raises(ConfigurationError):
        layout.row_is_true_cell(0)
    # but per-bit polarity is defined and alternates byte-wise
    polarity = layout.bits_are_true_cells(np.array([[0], [1]]), np.array([0, 8]))
    assert polarity[0, 0] != polarity[0, 1]
    assert polarity[0, 0] != polarity[1, 0]


def test_charged_mask_true_cells():
    layout = CellLayout(CellLayoutKind.ALL_TRUE)
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(charged_mask(layout, 0, bits), bits.astype(bool))


def test_charged_mask_anti_cells():
    layout = CellLayout(CellLayoutKind.ALTERNATE_ROWS)
    bits = np.array([1, 0], dtype=np.uint8)
    # row 1 is anti-cell: charged when storing 0
    assert np.array_equal(charged_mask(layout, 1, bits), np.array([False, True]))


def test_charged_mask_mixed():
    layout = CellLayout(CellLayoutKind.MIXED)
    bits = np.ones(16, dtype=np.uint8)
    mask = charged_mask(layout, 0, bits)
    # First byte true cells (charged for 1s), second byte anti (uncharged).
    assert mask[:8].all() and not mask[8:].any()


def test_bit_packing_roundtrip():
    data = np.arange(16, dtype=np.uint8)
    assert np.array_equal(
        np.packbits(bytes_to_bits(data), bitorder="little"), data
    )
    bits = bytes_to_bits(np.array([0b00000001], dtype=np.uint8))
    assert bits[0] == 1 and bits[1:].sum() == 0  # LSB-first


@pytest.mark.parametrize("kind", list(CellLayoutKind), ids=lambda k: k.value)
def test_bits_are_true_cells_matches_per_cell_polarity(kind):
    layout = CellLayout(kind, block_rows=4)
    rows = np.arange(12)[:, None]
    bits = np.arange(40)
    expected = [
        [bit_is_true_cell(layout, int(row), int(bit)) for bit in bits]
        for row in rows[:, 0]
    ]
    assert np.array_equal(layout.bits_are_true_cells(rows, bits), expected)
