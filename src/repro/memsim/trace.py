"""Synthetic workloads standing in for the paper's trace suite.

The paper drives Ramulator 2.0 with 57 SPEC CPU2006/2017, TPC, MediaBench,
and YCSB traces, keeping the highly memory-intensive ones (LLC MPKI >= 20)
and building 15 four-core mixes. Traces are not redistributable, so we
model each workload by the two properties that dominate DRAM-level behavior
in this study: **memory intensity** (LLC MPKI) and **row-buffer locality**
(probability that the next access hits the open row). Addresses follow a
hot-row-biased distribution so activation-count-based mitigations see
realistic per-row pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import derive


@dataclass(frozen=True)
class SyntheticWorkload:
    """One single-core workload model.

    Attributes:
        name: Suite-flavored label (for readable mix tables).
        mpki: LLC misses per kilo-instruction; the paper's "highly memory
            intensive" cutoff is 20.
        row_locality: Probability that a request reuses the previously
            requested row on the same bank (row-buffer friendliness).
        hot_rows: Size of the workload's hot row set per bank; smaller
            means more activation pressure per row.
    """

    name: str
    mpki: float
    row_locality: float
    hot_rows: int = 64

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ConfigurationError(f"{self.name}: mpki must be positive")
        if not 0.0 <= self.row_locality < 1.0:
            raise ConfigurationError(f"{self.name}: row_locality in [0, 1)")
        if self.hot_rows < 1:
            raise ConfigurationError(f"{self.name}: hot_rows must be >= 1")

    def gap_ns(self, core_freq_ghz: float = 4.0, base_ipc: float = 2.0) -> float:
        """Average compute time between LLC misses when never stalled."""
        instructions_per_miss = 1000.0 / self.mpki
        return instructions_per_miss / (core_freq_ghz * base_ipc)


#: Highly memory-intensive single-core workloads (MPKI >= 20), flavored
#: after the paper's suites.
HIGH_MPKI_WORKLOADS: Tuple[SyntheticWorkload, ...] = (
    SyntheticWorkload("mcf-like", 72.0, 0.20, hot_rows=12),
    SyntheticWorkload("lbm-like", 34.0, 0.62, hot_rows=24),
    SyntheticWorkload("milc-like", 26.0, 0.35, hot_rows=32),
    SyntheticWorkload("soplex-like", 28.0, 0.45, hot_rows=16),
    SyntheticWorkload("libquantum-like", 50.0, 0.85, hot_rows=4),
    SyntheticWorkload("omnetpp-like", 21.0, 0.25, hot_rows=40),
    SyntheticWorkload("gems-like", 30.0, 0.55, hot_rows=20),
    SyntheticWorkload("bwaves-like", 24.0, 0.70, hot_rows=28),
    SyntheticWorkload("tpcc-like", 22.0, 0.30, hot_rows=48),
    SyntheticWorkload("tpch-like", 27.0, 0.50, hot_rows=24),
    SyntheticWorkload("ycsb-a-like", 36.0, 0.40, hot_rows=8),
    SyntheticWorkload("ycsb-c-like", 23.0, 0.35, hot_rows=16),
    SyntheticWorkload("media-enc-like", 29.0, 0.75, hot_rows=10),
    SyntheticWorkload("stream-like", 64.0, 0.80, hot_rows=6),
    SyntheticWorkload("random-like", 40.0, 0.10, hot_rows=64),
)


@dataclass(frozen=True)
class WorkloadMix:
    """A four-core workload mix."""

    name: str
    workloads: Tuple[SyntheticWorkload, ...]

    def __post_init__(self) -> None:
        if len(self.workloads) != 4:
            raise ConfigurationError("a mix has exactly four workloads")


def standard_mixes(count: int = 15, seed: int = 7) -> List[WorkloadMix]:
    """The paper's 15 four-core highly-memory-intensive mixes.

    Mix composition is a deterministic random draw from the high-MPKI pool
    (the paper's exact pairings are not published).
    """
    if count < 1:
        raise ConfigurationError("need at least one mix")
    rng = derive(seed, "workload-mixes")
    mixes = []
    for index in range(count):
        picks = rng.choice(len(HIGH_MPKI_WORKLOADS), size=4, replace=False)
        mixes.append(
            WorkloadMix(
                name=f"mix{index:02d}",
                workloads=tuple(HIGH_MPKI_WORKLOADS[i] for i in picks),
            )
        )
    return mixes


#: Addresses generated per RNG batch. Fixed so the stream is identical no
#: matter how it is consumed (one address at a time, or ``take`` in
#: arbitrary slices): draws always happen in whole-chunk batches.
ADDRESS_CHUNK = 1024


class AddressGenerator:
    """Per-core address stream with row locality and hot-row bias.

    Addresses are generated in vectorized chunks of :data:`ADDRESS_CHUNK`
    (locality coin flips, bank picks, and Zipf row picks each batched into
    one RNG call) and served from an internal buffer: :meth:`take` hands
    out whole arrays for the simulation loop, in any slicing, from the
    same stream.
    """

    def __init__(
        self,
        workload: SyntheticWorkload,
        core: int,
        n_banks: int,
        n_rows: int,
        seed: int,
    ):
        self.workload = workload
        self.core = core
        self.n_banks = n_banks
        self.n_rows = n_rows
        self.rng = derive(seed, "addrgen", workload.name, core)
        # Each core owns a private row region to avoid aliasing between
        # cores (physical frame isolation), offset by core index.
        region = n_rows // 8
        base = (core * region) % max(1, n_rows - workload.hot_rows)
        # Zipf-flavored hot set: earlier rows are hotter.
        ranks = np.arange(1, workload.hot_rows + 1, dtype=float)
        weights = 1.0 / ranks**1.3
        self._rows = base + self.rng.permutation(workload.hot_rows)
        self._weights = weights / weights.sum()
        self._cum_weights = np.cumsum(self._weights)
        # Hot pages concentrate on a few banks; overlapping palettes
        # between cores also produce the row-buffer ping-pong that makes
        # real multiprogrammed traces re-activate the same rows heavily.
        palette = min(3, n_banks)
        self._banks = self.rng.choice(n_banks, size=palette, replace=False)
        self._last_bank = -1
        self._last_row = -1
        self._primed = False
        self._buf_banks = np.empty(0, dtype=np.int64)
        self._buf_rows = np.empty(0, dtype=np.int64)
        self._cursor = 0

    def _refill(self) -> None:
        """Generate the next :data:`ADDRESS_CHUNK` addresses in one batch."""
        n = ADDRESS_CHUNK
        rng = self.rng
        repeat = rng.random(n) < self.workload.row_locality
        if not self._primed:
            repeat[0] = False  # the very first request has nothing to reuse
        fresh = np.flatnonzero(~repeat)
        m = fresh.size
        if m:
            bank_picks = self._banks[rng.integers(0, self._banks.size, size=m)]
            row_draws = rng.random(m)
            row_idx = np.minimum(
                np.searchsorted(self._cum_weights, row_draws, side="right"),
                self._rows.size - 1,
            )
            row_picks = self._rows[row_idx]
        else:
            bank_picks = np.empty(0, dtype=np.int64)
            row_picks = np.empty(0, dtype=np.int64)
        # Forward-fill: each repeat reuses the most recent fresh address;
        # repeats before the chunk's first fresh pick carry the previous
        # chunk's last address.
        governor = np.full(n, -1, dtype=np.int64)
        governor[fresh] = np.arange(m)
        np.maximum.accumulate(governor, out=governor)
        carried = governor < 0
        safe = np.maximum(governor, 0)
        if m:
            banks = np.where(carried, self._last_bank, bank_picks[safe])
            rows = np.where(carried, self._last_row, row_picks[safe])
        else:
            banks = np.full(n, self._last_bank, dtype=np.int64)
            rows = np.full(n, self._last_row, dtype=np.int64)
        self._buf_banks = banks.astype(np.int64, copy=False)
        self._buf_rows = rows.astype(np.int64, copy=False)
        self._cursor = 0
        self._last_bank = int(banks[-1])
        self._last_row = int(rows[-1])
        self._primed = True

    def take(self, n: int) -> "tuple[np.ndarray, np.ndarray]":
        """The next ``n`` LLC misses as ``(banks, rows)`` arrays."""
        if n < 1:
            raise ConfigurationError("take needs at least one address")
        banks_parts = []
        rows_parts = []
        remaining = n
        while remaining > 0:
            if self._cursor >= self._buf_banks.size:
                self._refill()
            grab = min(remaining, self._buf_banks.size - self._cursor)
            banks_parts.append(
                self._buf_banks[self._cursor:self._cursor + grab]
            )
            rows_parts.append(self._buf_rows[self._cursor:self._cursor + grab])
            self._cursor += grab
            remaining -= grab
        if len(banks_parts) == 1:
            return banks_parts[0].copy(), rows_parts[0].copy()
        return np.concatenate(banks_parts), np.concatenate(rows_parts)
