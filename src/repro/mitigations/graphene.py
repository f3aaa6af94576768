"""Graphene: Misra-Gries frequent-element aggressor tracking (MICRO 2020).

A memory-controller-side table of counters per bank identifies rows whose
activation count could reach the configured threshold within one refresh
window; their neighbors are preventively refreshed when an estimated count
crosses half the threshold (refresh then resets the victim's exposure, so
the other half of the budget covers the rest of the window).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.mitigations.base import _PY_EPOCH, Action, Mitigation

#: Activations one bank can see in a refresh window (sizes the table).
ACTIVATIONS_PER_WINDOW = 1_400_000


class Graphene(Mitigation):
    """Misra-Gries tracker with per-bank tables.

    The tables are count/present arrays plus per-bank entry sets. The
    budget ceiling covers all three ways a count can climb: tracked
    increments (table max, histogram-maintained), *fresh inserts starting
    at the bank's spillover baseline* (``max_spill``), and table capacity
    (an epoch of all-new rows must not force an eviction). Near any
    boundary the simulation loop steps through the exact Misra-Gries
    logic, including the spillover-eviction branch.
    """

    name = "Graphene"

    def __init__(self, threshold: float):
        super().__init__(threshold)
        self.refresh_at = max(1, int(self.threshold / 2.0))
        # Misra-Gries needs W / refresh_at counters to guarantee no row
        # exceeds refresh_at undetected within a window of W activations.
        self.table_size = math.ceil(ACTIVATIONS_PER_WINDOW / self.refresh_at)
        self._screen(self.refresh_at)

    def budget(self) -> int:
        ceiling = self._max if self._max >= self._max_spill else self._max_spill
        h_count = self.refresh_at - 1 - ceiling
        h_cap = self.table_size - self._max_occ
        h = h_count if h_count < h_cap else h_cap
        if (
            h < self._floor
            and self._floor_ok
            and self._max_spill <= self._danger_at
            and h_cap >= self._floor
        ):
            return self._floor
        return h if h > 0 else 0

    def on_activate_many(self, banks, rows) -> None:
        n = len(banks)
        n_rows = self.n_rows
        counts = self._counts
        hist = self._hist
        bank_rows = self._bank_rows
        spill = self._spill
        danger_at = self._danger_at
        danger = self.danger
        mx = self._max
        if n < _PY_EPOCH:
            present = self._present
            for bank, row in zip(banks, rows):
                flat = bank * n_rows + row
                rows_here = bank_rows[bank]
                if flat in rows_here:
                    old = counts[flat]
                    count = old + 1
                    if old > 0:
                        hist[old] -= 1
                else:
                    # New entries start at the bank's spillover baseline.
                    count = spill[bank] + 1
                    rows_here.add(flat)
                    present[flat] = True
                    if len(rows_here) > self._max_occ:
                        self._max_occ = len(rows_here)
                counts[flat] = count
                hist[count] += 1
                if count > mx:
                    mx = count
                if count >= danger_at:
                    danger.add(flat)
            self._max = int(mx)
        else:
            flat = np.asarray(banks) * n_rows + np.asarray(rows)
            uniq, add = np.unique(flat, return_counts=True)
            fresh = ~self._present[uniq]
            old = counts[uniq]
            new = old + add
            if fresh.any():
                fresh_flat = uniq[fresh]
                fresh_banks = fresh_flat // n_rows
                new[fresh] = (
                    np.asarray(spill, dtype=np.int64)[fresh_banks] + add[fresh]
                )
                self._present[fresh_flat] = True
                for f in fresh_flat.tolist():
                    rows_here = bank_rows[f // n_rows]
                    rows_here.add(f)
                    if len(rows_here) > self._max_occ:
                        self._max_occ = len(rows_here)
            counts[uniq] = new
            for is_fresh, o, c, f in zip(
                fresh.tolist(), old.tolist(), new.tolist(), uniq.tolist()
            ):
                if not is_fresh and o > 0:
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
        rows_here = self._bank_rows[bank]
        if flat in rows_here:
            old = int(counts[flat])
            count = old + 1
            if old > 0:
                hist[old] -= 1
        elif len(rows_here) < self.table_size:
            count = self._spill[bank] + 1
            rows_here.add(flat)
            self._present[flat] = True
            if len(rows_here) > self._max_occ:
                self._max_occ = len(rows_here)
        else:
            # Lazy Misra-Gries decrement-all: bump the spillover and evict
            # every tracked row it catches up with. Not an action, and the
            # activation itself goes untracked.
            new_spill = self._spill[bank] + 1
            self._spill[bank] = new_spill
            if new_spill > self._max_spill:
                self._max_spill = new_spill
            if new_spill + 2 > len(hist):
                # Spillover baselines can outgrow refresh_at (tiny tables);
                # counts are bounded by spill + 1, so grow the histogram.
                hist.extend([0] * (new_spill + 2 - len(hist)))
            evicted = [f for f in rows_here if counts[f] <= new_spill]
            if evicted:
                for f in evicted:
                    rows_here.discard(f)
                    old = int(counts[f])
                    if old > 0:
                        hist[old] -= 1
                self._present[np.asarray(evicted, dtype=np.int64)] = False
                mx = self._max
                while mx > 0 and hist[mx] == 0:
                    mx -= 1
                self._max = mx
            return None
        if count >= self.refresh_at:
            new_count = self._spill[bank]
            counts[flat] = new_count
            if new_count > 0:
                hist[new_count] += 1
            if new_count < self._danger_at:
                self.danger.discard(flat)
            mx = self._max
            while mx > 0 and hist[mx] == 0:
                mx -= 1
            self._max = mx
            return self._refresh_action(bank, row)
        counts[flat] = count
        hist[count] += 1
        if count > self._max:
            self._max = count
        if count >= self._danger_at:
            self.danger.add(flat)
        return None

    def on_refresh_window(self) -> None:
        size = self.n_banks * self.n_rows
        self._counts = np.zeros(size, dtype=np.int64)
        self._present = np.zeros(size, dtype=bool)
        #: Tracked row flats per bank (mirrors ``_present``); its length
        #: is the bank's table occupancy.
        self._bank_rows: List[set] = [set() for _ in range(self.n_banks)]
        #: Misra-Gries spillover counter per bank.
        self._spill: List[int] = [0] * self.n_banks
        self._max_spill = 0
        #: Upper bound on per-bank occupancy (never decays mid-window;
        #: an overestimate only shrinks the budget, which is safe).
        self._max_occ = 0
        # _hist[c] = number of *tracked* rows currently at count c (>= 1).
        self._hist: List[int] = [0] * (self.refresh_at + 1)
        self._max = 0
        self.danger.clear()
