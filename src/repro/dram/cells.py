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

    def row_is_true_cell(self, row: int) -> bool:
        """Polarity of a whole row (only defined for row-uniform layouts)."""
        if row < 0:
            raise ConfigurationError(f"negative row {row}")
        if self.kind is CellLayoutKind.MIXED:
            raise ConfigurationError(
                "MIXED layouts have no single per-row polarity; "
                "use bits_are_true_cells"
            )
        if self.kind is CellLayoutKind.ALL_TRUE:
            return True
        if self.kind is CellLayoutKind.ALTERNATE_ROWS:
            return row % 2 == 0
        return (row // self.block_rows) % 2 == 0

    def bits_are_true_cells(self, rows, bits: np.ndarray) -> np.ndarray:
        """Polarity of cells: ``rows`` (one row or an array of rows)
        broadcasts against the array of bit indices. MIXED layouts
        alternate polarity byte-wise within a row and row to row.

        The packed device fast path classifies a whole bank's weak cells
        at once; ``bit_is_true_cell`` in ``tests/differential/harness.py``
        is its cell-at-a-time specification.
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
