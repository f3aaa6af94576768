"""PRAC: per-row activation counters with back-off (DDR5, JESD79-5C).

The DRAM keeps an exact activation counter in every row. When a counter
crosses the configured back-off threshold, the device raises an alert and
the controller issues RFM-class commands, stalling the rank while the DRAM
refreshes the potential victims and resets the counter.

The back-off threshold is quantized to a power of two (counter compare
logic), which is why the paper observes PRAC's overhead *not* changing as
the configured RDT moves from 128 to 115 (footnote 16).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.mitigations.base import _PY_EPOCH, RFM_BLOCK_NS, Action, Mitigation

#: Back-off fires at this fraction of the threshold (before quantization),
#: early enough that in-flight activations cannot overshoot.
BACKOFF_HEADROOM = 0.8


def quantize_pow2(value: float) -> int:
    """Nearest power of two (in log space), minimum 1."""
    if value <= 1.0:
        return 1
    return 1 << round(math.log2(value))


class Prac(Mitigation):
    """Per-row activation counting with alert/back-off.

    The per-(bank, row) counters are one flat numpy table; a histogram of
    counts keeps the table max (and therefore the budget) O(1) across
    resets.
    """

    name = "PRAC"

    def __init__(self, threshold: float):
        super().__init__(threshold)
        self.backoff_at = quantize_pow2(self.threshold * BACKOFF_HEADROOM)
        self._screen(self.backoff_at)

    def budget(self) -> int:
        h = self.backoff_at - 1 - self._max
        if self._floor_ok and h < self._floor:
            return self._floor
        return h if h > 0 else 0

    def on_activate_many(self, banks, rows) -> None:
        n = len(banks)
        n_rows = self.n_rows
        counts = self._counts
        hist = self._hist
        danger_at = self._danger_at
        danger = self.danger
        mx = self._max
        if n < _PY_EPOCH:
            for bank, row in zip(banks, rows):
                flat = bank * n_rows + row
                count = counts[flat] + 1
                counts[flat] = count
                if count > 1:
                    hist[count - 1] -= 1
                hist[count] += 1
                if count > mx:
                    mx = count
                if count >= danger_at:
                    danger.add(flat)
            self._max = int(mx)
        else:
            flat = np.asarray(banks) * n_rows + np.asarray(rows)
            uniq, add = np.unique(flat, return_counts=True)
            old = counts[uniq]
            new = old + add
            counts[uniq] = new
            for f, o, c in zip(uniq.tolist(), old.tolist(), new.tolist()):
                if o > 0:
                    hist[o] -= 1
                hist[c] += 1
                if c > mx:
                    mx = c
                if c >= danger_at:
                    danger.add(f)
            self._max = mx

    def step(self, bank: int, row: int) -> Optional[Action]:
        flat = bank * self.n_rows + row
        counts = self._counts
        hist = self._hist
        old = int(counts[flat])
        count = old + 1
        if old > 0:
            hist[old] -= 1
        if count >= self.backoff_at:
            counts[flat] = 0
            self.danger.discard(flat)
            mx = self._max
            while mx > 0 and hist[mx] == 0:
                mx -= 1
            self._max = mx
            return self._refresh_action(bank, row, rank_ns=RFM_BLOCK_NS)
        counts[flat] = count
        hist[count] += 1
        if count > self._max:
            self._max = count
        if count >= self._danger_at:
            self.danger.add(flat)
        return None

    def on_refresh_window(self) -> None:
        # Periodic refresh resets victim exposure, so counters restart.
        # Window resets are rare (tREFW >> simulated windows), so a fresh
        # table beats bookkeeping a touched set on the hot paths.
        self._counts = np.zeros(self.n_banks * self.n_rows, dtype=np.int64)
        # _hist[c] = number of rows currently at count c (c >= 1).
        self._hist: List[int] = [0] * (self.backoff_at + 1)
        self._max = 0
        self.danger.clear()
