"""MINT: minimalist in-DRAM tracker (Qureshi et al., 2024).

The DRAM samples one activation per RFM interval with a single-entry
tracker and mitigates the sampled row when the controller issues RFM. The
controller must issue an RFM every N activations per bank, with N derived
from the configured threshold; like PRAC's back-off threshold, N is
quantized to a power of two, producing the step-function overhead the
paper's footnote 16 notes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mitigations.base import (
    _DRAW_CHUNK, _PY_EPOCH, RFM_BLOCK_NS, Action, Mitigation,
)
from repro.mitigations.prac import quantize_pow2
from repro.rng import derive

#: Security-analysis divisor: an RFM every threshold/4 activations.
RFM_DIVISOR = 4.0


class _DrawBuffer:
    """Chunked uniform draws, bit-identical to per-call ``rng.random()``."""

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def draw(self, n: int) -> np.ndarray:
        parts = []
        remaining = n
        while remaining > 0:
            if self._pos >= self._buf.size:
                self._buf = self._rng.random(_DRAW_CHUNK)
                self._pos = 0
            grab = min(remaining, self._buf.size - self._pos)
            parts.append(self._buf[self._pos:self._pos + grab])
            self._pos += grab
            remaining -= grab
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def draw1(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = self._rng.random(_DRAW_CHUNK)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)


class Mint(Mitigation):
    """Single-entry reservoir sampler paced by RFM.

    Per-bank activation counts are a plain list (banks are few), and the
    reservoir draws are consumed from a pre-drawn buffer in activation
    order. Danger keys are bank indices: a bank near its RFM point steps.
    """

    name = "MINT"
    danger_by_bank = True

    def __init__(self, threshold: float, seed: int = 0):
        super().__init__(threshold)
        self.rfm_every = quantize_pow2(self.threshold / RFM_DIVISOR)
        self.seed = seed
        self._screen(self.rfm_every)

    def start(self, n_banks: int, n_rows: int) -> None:
        super().start(n_banks, n_rows)
        self._draws = _DrawBuffer(derive(self.seed, "mint", int(self.threshold)))

    def budget(self) -> int:
        h = self.rfm_every - 1 - max(self._counts)
        if self._floor_ok and h < self._floor:
            return self._floor
        return h if h > 0 else 0

    def on_activate_many(self, banks, rows) -> None:
        n = len(banks)
        u = self._draws.draw(n)
        counts = self._counts
        sampled = self._sampled
        danger_at = self._danger_at
        danger = self.danger
        if n < _PY_EPOCH:
            for bank, row, x in zip(banks, rows, u.tolist()):
                count = counts[bank] + 1
                if x < 1.0 / count:
                    sampled[bank] = (bank, row)
                counts[bank] = count
                if count >= danger_at:
                    danger.add(bank)
        else:
            bank_arr = np.asarray(banks)
            row_arr = np.asarray(rows)
            for bank in set(banks):
                mask = bank_arr == bank
                n_here = int(mask.sum())
                # k-th activation since RFM replaces the sample with
                # probability 1/k.
                ks = counts[bank] + np.arange(1, n_here + 1)
                hits = np.flatnonzero(u[mask] < 1.0 / ks)
                if hits.size:
                    sampled[bank] = (bank, int(row_arr[mask][hits[-1]]))
                count = counts[bank] + n_here
                counts[bank] = count
                if count >= danger_at:
                    danger.add(bank)

    def step(self, bank: int, row: int) -> Optional[Action]:
        count = self._counts[bank] + 1
        # Reservoir sampling: the k-th activation replaces the sample with
        # probability 1/k, giving each activation in the interval an equal
        # chance of being the mitigated one.
        if self._draws.draw1() < 1.0 / count:
            self._sampled[bank] = (bank, row)
        if count >= self.rfm_every:
            self._counts[bank] = 0
            self.danger.discard(bank)
            sampled = self._sampled[bank]
            self._sampled[bank] = None
            if sampled is None:
                self.rank_blocks += 1
                return ([], RFM_BLOCK_NS, ())
            return self._refresh_action(*sampled, rank_ns=RFM_BLOCK_NS)
        self._counts[bank] = count
        if count >= self._danger_at:
            self.danger.add(bank)
        return None

    def on_refresh_window(self) -> None:
        self._counts: List[int] = [0] * self.n_banks
        self._sampled: List[Optional[Tuple[int, int]]] = [None] * self.n_banks
        self.danger.clear()
