"""BlockHammer-style throttling mitigation.

The third mitigation class the paper's Sec. 2.3 names (besides preventive
refresh and isolation): *selectively throttle* accesses to rows approaching
the threshold. We model the BlockHammer idea with a per-bank counting
Bloom-filter-like structure (a small array of saturating counters indexed
by row hash): once a row's estimated activation count within the tracking
window crosses a quota derived from the threshold, further activations of
that row are delayed.

Throttling never loses row data (no preventive refresh needed), but its
performance cost lands entirely on the offending rows' accesses — benign
hot rows in tight reuse loops pay, which is why refresh-based schemes win
on typical workloads at moderate thresholds and throttling only becomes
competitive at very low thresholds (evaluated by
``benchmarks/test_ext_throttling.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mitigations.base import _PY_EPOCH, Action, Mitigation

#: Throttle delay applied to an over-quota activation (ns). Chosen near the
#: time a preventive refresh of two victims would cost, so the comparison
#: against refresh-based schemes is about *placement* of the penalty.
THROTTLE_DELAY_NS = 120.0

#: Counters per bank's count-min filter.
FILTER_SIZE = 1024

#: Hash functions (filter cells) per row.
N_HASHES = 2

#: A row is throttled once its estimate exceeds this fraction of the
#: threshold within the tracking window.
QUOTA_FRACTION = 0.5


class BlockHammer(Mitigation):
    """Counting-filter throttling of rapidly activated rows.

    The per-bank count-min filters are one 2-D table. Epochs use the
    global-cell bound only (no danger screening): a count-min estimate is
    a min over cells, so no row's estimate — even of rows never
    activated, whose cells alias with hot rows — can exceed the largest
    filter cell.
    """

    name = "BlockHammer"

    def __init__(self, threshold: float):
        super().__init__(threshold)
        self.filter_size = FILTER_SIZE
        self.n_hashes = N_HASHES
        self.quota = max(1, int(self.threshold * QUOTA_FRACTION))
        self.throttled_activations = 0

    def start(self, n_banks: int, n_rows: int) -> None:
        super().start(n_banks, n_rows)
        self.throttled_activations = 0

    def _indices(self, row: int) -> List[int]:
        indices = []
        value = row
        for salt in range(self.n_hashes):
            value = (value * 2654435761 + salt * 40503 + 12345) & 0xFFFFFFFF
            indices.append(value % self.filter_size)
        return indices

    def _hash_indices(self, rows: np.ndarray) -> List[np.ndarray]:
        """Vectorized :meth:`_indices` (chained hash)."""
        indices = []
        value = rows.astype(np.uint64)
        for salt in range(self.n_hashes):
            value = (value * np.uint64(2654435761)
                     + np.uint64(salt * 40503 + 12345)) & np.uint64(0xFFFFFFFF)
            indices.append((value % np.uint64(self.filter_size)).astype(np.int64))
        return indices

    def budget(self) -> int:
        h = self.quota - self._max_cell
        return h if h > 0 else 0

    def on_activate_many(self, banks, rows) -> None:
        n = len(banks)
        max_cell = self._max_cell
        if n < _PY_EPOCH:
            filters = self._filters
            indices_of = self._indices
            for bank, row in zip(banks, rows):
                counters = filters[bank]
                for index in indices_of(row):
                    cell = counters[index] + 1
                    counters[index] = cell
                    if cell > max_cell:
                        max_cell = cell
            self._max_cell = int(max_cell)
        else:
            bank_arr = np.asarray(banks)
            hashed = self._hash_indices(np.asarray(rows))
            flat = self._filters.reshape(-1)
            for idx in hashed:
                cells = bank_arr * self.filter_size + idx
                np.add.at(flat, cells, 1)
                max_cell = max(max_cell, int(flat[cells].max()))
            self._max_cell = max_cell

    def step(self, bank: int, row: int) -> Optional[Action]:
        counters = self._filters[bank]
        indices = self._indices(row)
        max_cell = self._max_cell
        for index in indices:
            cell = counters[index] + 1
            counters[index] = cell
            if cell > max_cell:
                max_cell = cell
        self._max_cell = int(max_cell)
        # Count-min estimate of the row's activations this window.
        estimate = int(min(counters[index] for index in indices))
        if estimate > self.quota:
            self.throttled_activations += 1
            # No refresh, no rank stall: the penalty lands on this bank
            # alone (throttling-class mitigation).
            return ([], 0.0, ((bank, THROTTLE_DELAY_NS),))
        return None

    def on_refresh_window(self) -> None:
        self._filters = np.zeros(
            (self.n_banks, self.filter_size), dtype=np.int64
        )
        self._max_cell = 0
