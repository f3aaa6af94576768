"""PARA: probabilistic adjacent-row activation (Kim et al., ISCA 2014).

Stateless: every activation refreshes the aggressor's neighbors with a
small probability p. For a threshold T, p must satisfy
``(1 - p)^T <= P_fail`` so an attacker cannot reach T activations without a
refresh except with negligible probability; hence ``p ~ ln(1/P_fail) / T``
and the overhead grows inversely with the configured threshold.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.mitigations.base import _DRAW_CHUNK, Action, Mitigation
from repro.rng import derive

#: Probability that an attacker reaches the threshold without a refresh.
FAILURE_PROBABILITY = 1e-10


def para_probability(threshold: float) -> float:
    """The p PARA needs for a given threshold (exposed for analysis)."""
    # (1-p)^T = P_fail  =>  p = 1 - P_fail^(1/T)
    return min(1.0, 1.0 - FAILURE_PROBABILITY ** (1.0 / threshold))


class Para(Mitigation):
    """Probabilistic neighbor refresh.

    The Bernoulli stream is pre-drawn, so the position of every future
    refresh is known exactly: the budget is the gap to the next hit and
    the danger set stays empty.
    """

    name = "PARA"

    def __init__(self, threshold: float, seed: int = 0):
        super().__init__(threshold)
        self.p = para_probability(self.threshold)
        self.seed = seed

    def start(self, n_banks: int, n_rows: int) -> None:
        super().start(n_banks, n_rows)
        self._rng = derive(self.seed, "para", int(self.threshold))
        self._carry = 0  # non-hit draws pending from scanned chunks
        self._gaps: "deque[int]" = deque()

    def _scan_chunk(self) -> None:
        chunk = self._rng.random(_DRAW_CHUNK)
        hits = np.flatnonzero(chunk < self.p)
        prev = 0
        for hit in hits.tolist():
            self._gaps.append(self._carry + (hit - prev))
            self._carry = 0
            prev = hit + 1
        self._carry += chunk.size - prev

    def budget(self) -> int:
        while not self._gaps:
            self._scan_chunk()  # p > 0 always, so a hit eventually appears
        return self._gaps[0]

    def on_activate_many(self, banks, rows) -> None:
        self._gaps[0] -= len(banks)

    def step(self, bank: int, row: int) -> Optional[Action]:
        if self.budget() > 0:  # defensive: a non-hit draw
            self._gaps[0] -= 1
            return None
        self._gaps.popleft()
        return self._refresh_action(bank, row)
