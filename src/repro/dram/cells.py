"""True- and anti-cell layout.

A *true cell* encodes logic-1 as a charged capacitor; an *anti cell* encodes
logic-1 as discharged (paper Sec. 5.6). Read disturbance discharges cells, so
only cells currently holding charge can flip; which stored *value* is
vulnerable therefore depends on the cell's polarity. The paper measures the
layout of module M0 with the methodology of prior work (retention-failure
polarity) and finds no significant VRD difference between the two.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ConfigurationError


class CellLayoutKind(enum.Enum):
    """Layout families observed in real chips."""

    #: Every cell is a true cell.
    ALL_TRUE = "all_true"
    #: Rows alternate polarity in 512-row blocks (common in real devices).
    ROW_BLOCKS = "row_blocks"
    #: Polarity alternates every row.
    ALTERNATE_ROWS = "alternate_rows"
    #: Polarity alternates byte-wise within every row (mixed rows).
    MIXED = "mixed"


class CellLayout:
    """Maps (row, bit) to cell polarity for one bank.

    The layout is deterministic per kind so reverse engineering (writing all
    zeros / all ones and baking retention failures) is reproducible.
    """

    def __init__(self, kind: CellLayoutKind, block_rows: int = 512):
        if block_rows <= 0:
            raise ConfigurationError("block_rows must be positive")
        self.kind = kind
        self.block_rows = block_rows

    @property
    def row_uniform(self) -> bool:
        """Whether every cell of a row shares one polarity.

        Module M0's measured layout (paper Sec. 5.6) classifies whole rows
        as true- or anti-cell rows, which requires a row-uniform layout.
        """
        return self.kind is not CellLayoutKind.MIXED

    def row_is_true_cell(self, row: int) -> bool:
        """Polarity of a whole row (only defined for row-uniform layouts)."""
        if row < 0:
            raise ConfigurationError(f"negative row {row}")
        if self.kind is CellLayoutKind.MIXED:
            raise ConfigurationError(
                "MIXED layouts have no single per-row polarity; "
                "use bit_is_true_cell"
            )
        if self.kind is CellLayoutKind.ALL_TRUE:
            return True
        if self.kind is CellLayoutKind.ALTERNATE_ROWS:
            return row % 2 == 0
        return (row // self.block_rows) % 2 == 0

    def bit_is_true_cell(self, row: int, bit: int) -> bool:
        """Polarity of one cell."""
        if bit < 0:
            raise ConfigurationError(f"negative bit index {bit}")
        if self.kind is CellLayoutKind.MIXED:
            return ((bit >> 3) + row) % 2 == 0
        return self.row_is_true_cell(row)

    def bits_are_true_cells(self, rows, bits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bit_is_true_cell`: ``rows`` (one row or an
        array of rows) broadcasts against the array of bit indices.

        Element-for-element equal to the scalar method; the packed device
        fast path uses this to classify a whole bank's weak cells at once.
        """
        rows = np.asarray(rows)
        bits = np.asarray(bits)
        if bits.size and int(bits.min()) < 0:
            raise ConfigurationError("negative bit index")
        if self.kind is CellLayoutKind.MIXED:
            return ((bits >> 3) + rows) % 2 == 0
        if rows.size and int(rows.min()) < 0:
            raise ConfigurationError(f"negative row {int(rows.min())}")
        if self.kind is CellLayoutKind.ALL_TRUE:
            true_rows = np.ones(rows.shape, dtype=bool)
        elif self.kind is CellLayoutKind.ALTERNATE_ROWS:
            true_rows = rows % 2 == 0
        else:
            true_rows = (rows // self.block_rows) % 2 == 0
        shape = np.broadcast_shapes(rows.shape, bits.shape)
        return np.broadcast_to(true_rows, shape).copy()

    def charged_mask(self, row: int, data_bits: np.ndarray) -> np.ndarray:
        """Boolean mask of cells that hold charge for the stored bits.

        True cells are charged when storing 1; anti cells when storing 0.
        Charged cells are the primary read-disturbance flip candidates;
        uncharged cells can still flip (charge injection) but at a higher
        threshold (see :mod:`repro.dram.faults`).
        """
        bits = np.asarray(data_bits, dtype=bool)
        if self.kind is CellLayoutKind.MIXED:
            indices = np.arange(bits.size)
            true_cells = ((indices >> 3) + row) % 2 == 0
            return np.where(true_cells, bits, ~bits)
        if self.row_is_true_cell(row):
            return bits
        return ~bits

    def flip_direction(self, row: int) -> str:
        """The dominant flip direction for a row-uniform row.

        Discharge of a true cell reads as 1->0; of an anti cell as 0->1.
        """
        return "1->0" if self.row_is_true_cell(row) else "0->1"


def bytes_to_bits(data: np.ndarray) -> np.ndarray:
    """Unpack a uint8 row buffer to a bit array (LSB-first within bytes)."""
    return np.unpackbits(np.asarray(data, dtype=np.uint8), bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Pack a bit array (LSB-first within bytes) back to uint8 bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
