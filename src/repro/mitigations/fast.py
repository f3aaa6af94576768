"""Array-backed mitigation batchers for the memory-system simulation loop.

The reference mitigations (:mod:`repro.mitigations`) keep per-activation
state in Python dicts and return a :class:`~repro.mitigations.base.
PreventiveAction` per ACT — exactly what a per-request simulation loop
wants, and exactly what makes it slow at sweep scale. Each batcher here
re-implements one mechanism's state as preallocated numpy counter tables
plus O(1) bookkeeping, and exposes the epoch protocol the simulation loop
drives:

* :meth:`MitigationBatcher.budget` — how many further activations may be
  buffered before the next mandatory flush. Within one budget, any
  activation whose key is *not* in :attr:`MitigationBatcher.danger` is
  guaranteed action-free and its counter update commutes, so the fast
  core just buffers it;
* :attr:`MitigationBatcher.danger` — the set of keys (``bank * n_rows +
  row`` flats, or bank indices when :attr:`danger_by_bank` is set) that
  are close enough to an action that they must be stepped exactly. The
  set is mutated in place, never rebound, so callers may cache it;
* :meth:`MitigationBatcher.on_activate_many` — absorb one buffered epoch
  with batched counter updates (a scalar loop below :data:`_PY_EPOCH`
  activations, ``np.unique``-grouped vectorized updates above);
* :meth:`MitigationBatcher.step` — one exact per-activation update for
  dangerous or budget-exhausted activations, returning the action as a
  plain ``(victim_refreshes, rank_block_ns, bank_delays)`` tuple
  (``None`` when nothing happened).

**Why this is exact.** Let ``K`` = :data:`_EPOCH_FLOOR` and take a
mechanism whose action fires when a counter reaches ``limit``. ``danger``
holds every key with count >= ``limit - 1 - K`` (an invariant every
update path maintains), so a screened key starts an epoch at most
``limit - 2 - K`` and can gain at most the epoch budget. A budget of
``K`` therefore leaves it at most at ``limit - 2``; a budget of
``h = limit - 1 - max_count > K`` bounds *every* key by ``limit - 1``.
Either way no screened activation can cross mid-epoch, and since no
action fires, the buffered counter increments commute with each other
and with the surrounding exact steps. Stochastic mechanisms (PARA, MINT)
consume the *same* RNG draw sequence through chunked
``Generator.random`` buffers, which numpy guarantees are bit-identical
to per-call draws.

**Equivalence contract.** For any activation sequence, driving a batcher
with screened epochs and exact steps produces byte-identical actions,
action positions, and final counters to calling the reference
mitigation's ``on_activate`` once per activation
(``tests/mitigations/test_fast.py`` asserts this directly, and the
``memsim`` pair's ``reference_memsim_run`` in ``tests/differential/
harness.py`` drives the reference mitigations through a whole
simulation). The reference mitigations stay in :mod:`repro.mitigations`
as that oracle; their ``on_refresh_window`` and the batchers' run when a
simulated window crosses tREFW (``fig14 --window`` above 32 ms). Any
behavioral change to a reference mitigation MUST be mirrored here.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mitigations.base import (
    Mitigation,
    RFM_BLOCK_NS,
    neighbors_of,
)
from repro.mitigations.blockhammer import THROTTLE_DELAY_NS, BlockHammer
from repro.mitigations.graphene import Graphene
from repro.mitigations.mint import Mint
from repro.mitigations.para import Para
from repro.mitigations.prac import Prac

#: One simulation-loop action: (victim refreshes, rank stall ns, bank delays).
Action = Tuple[List[Tuple[int, int]], float, Sequence[Tuple[int, float]]]

#: RNG draws pre-generated per batch by the stochastic batchers.
_DRAW_CHUNK = 4096

#: Cap on the screened epoch floor. Each batcher scales its own floor to
#: its action limit (see :func:`_floor_for`) so screening stays active —
#: and the danger zone stays narrow — even at very low thresholds.
_EPOCH_FLOOR = 48

#: Epoch size below which counter updates run as a Python scalar loop;
#: ``np.unique`` grouping only pays off above this.
_PY_EPOCH = 64


def _floor_for(limit: int) -> int:
    """Screened epoch floor for a mechanism acting at ``limit``.

    An eighth of the limit keeps the danger zone (the last ``floor``
    counts before an action, whose activations must step exactly) to
    ~12% of a hot row's cycle while still amortizing the flush overhead
    over several buffered activations.
    """
    return max(1, min(_EPOCH_FLOOR, limit // 8))


class MitigationBatcher:
    """Epoch protocol shared by all batchers (see module docstring)."""

    #: When True, ``danger`` holds bank indices instead of row flats.
    danger_by_bank = False

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        self.preventive_refreshes = 0
        self.rank_blocks = 0
        self.danger: set = set()

    def budget(self) -> int:
        """Activations that may be buffered before the next flush."""
        raise NotImplementedError

    def on_activate_many(
        self, banks: Sequence[int], rows: Sequence[int]
    ) -> None:
        """Absorb one screened epoch (batched counter updates)."""
        raise NotImplementedError

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
        """One exact per-activation update; returns the action, if any."""
        raise NotImplementedError

    def on_refresh_window(self, now: float) -> None:
        """tREFW boundary: reset whatever the mechanism resets."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Write the run's counters back onto the wrapped mitigation."""
        self.mitigation.preventive_refreshes = self.preventive_refreshes
        self.mitigation.rank_blocks = self.rank_blocks

    def _refresh_action(self, bank: int, row: int, rank_ns: float = 0.0) -> Action:
        victims = neighbors_of(bank, row)
        self.preventive_refreshes += len(victims)
        if rank_ns > 0:
            self.rank_blocks += 1
        return (victims, rank_ns, ())


class GenericBatcher(MitigationBatcher):
    """Exact fallback for mitigations without an array fast path.

    Advertises a zero budget, so the simulation loop steps every
    activation through the mitigation's own ``on_activate`` —
    bit-identical by definition (the wrapped instance keeps counting its
    own actions).
    """

    def budget(self) -> int:
        return 0

    def on_activate_many(self, banks, rows) -> None:
        raise AssertionError("generic batcher only steps")  # pragma: no cover

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
        action = self.mitigation.on_activate(bank, row, now)
        if action.is_noop:
            return None
        return (action.victim_refreshes, action.rank_block_ns, action.bank_delays)

    def on_refresh_window(self, now: float) -> None:
        self.mitigation.on_refresh_window(now)

    def finalize(self) -> None:
        pass  # the wrapped instance counted everything itself


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


class ParaBatcher(MitigationBatcher):
    """PARA: the Bernoulli stream is pre-drawn, so the position of every
    future refresh is known exactly — the budget is the gap to the next
    hit and the danger set stays empty."""

    def __init__(self, para: Para):
        super().__init__(para)
        self.p = para.p
        self._rng = para._rng
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

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
        if self.budget() > 0:  # defensive: a non-hit draw
            self._gaps[0] -= 1
            return None
        self._gaps.popleft()
        return self._refresh_action(bank, row)

    def on_refresh_window(self, now: float) -> None:
        pass  # PARA keeps no per-window state


class MintBatcher(MitigationBatcher):
    """MINT: per-bank activation counts as a plain list (banks are few),
    reservoir draws consumed from a pre-drawn buffer in activation order.
    Danger keys are bank indices — a bank near its RFM point steps."""

    danger_by_bank = True

    def __init__(self, mint: Mint, n_banks: int):
        super().__init__(mint)
        self.rfm_every = mint.rfm_every
        self._draws = _DrawBuffer(mint._rng)
        self._counts: List[int] = [0] * n_banks
        self._sampled: List[Optional[Tuple[int, int]]] = [None] * n_banks
        self._floor = _floor_for(self.rfm_every)
        self._danger_at = self.rfm_every - 1 - self._floor
        self._floor_ok = self._danger_at > 0

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

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
        count = self._counts[bank] + 1
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

    def on_refresh_window(self, now: float) -> None:
        n_banks = len(self._counts)
        self._counts = [0] * n_banks
        self._sampled = [None] * n_banks
        self.danger.clear()


class PracBatcher(MitigationBatcher):
    """PRAC: the per-(bank, row) counter dict becomes one flat numpy
    table; a histogram of counts keeps the table max (and therefore the
    budget) O(1) across resets."""

    def __init__(self, prac: Prac, n_banks: int, n_rows: int):
        super().__init__(prac)
        self.backoff_at = prac.backoff_at
        self.n_banks = n_banks
        self.n_rows = n_rows
        self._counts = np.zeros(n_banks * n_rows, dtype=np.int64)
        # _hist[c] = number of rows currently at count c (c >= 1).
        self._hist: List[int] = [0] * (self.backoff_at + 1)
        self._max = 0
        self._floor = _floor_for(self.backoff_at)
        self._danger_at = self.backoff_at - 1 - self._floor
        self._floor_ok = self._danger_at > 0

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

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
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

    def on_refresh_window(self, now: float) -> None:
        # Window resets are rare (tREFW >> simulated windows), so a fresh
        # table beats bookkeeping a touched set on the hot paths.
        self._counts = np.zeros(self.n_banks * self.n_rows, dtype=np.int64)
        self._hist = [0] * (self.backoff_at + 1)
        self._max = 0
        self.danger.clear()


class GrapheneBatcher(MitigationBatcher):
    """Graphene: Misra-Gries tables as count/present arrays plus per-bank
    entry sets.

    The budget ceiling covers all three ways a count can climb: tracked
    increments (table max, histogram-maintained), *fresh inserts starting
    at the bank's spillover baseline* (``max_spill``), and table capacity
    (an epoch of all-new rows must not force an eviction). Near any
    boundary the simulation loop steps through the exact Misra-Gries logic,
    including the spillover-eviction branch.
    """

    def __init__(self, graphene: Graphene, n_banks: int, n_rows: int):
        super().__init__(graphene)
        self.refresh_at = graphene.refresh_at
        self.table_size = graphene.table_size
        self.n_banks = n_banks
        self.n_rows = n_rows
        self._counts = np.zeros(n_banks * n_rows, dtype=np.int64)
        self._present = np.zeros(n_banks * n_rows, dtype=bool)
        #: Tracked row flats per bank (mirrors ``_present``); its length
        #: is the bank's table occupancy.
        self._bank_rows: List[set] = [set() for _ in range(n_banks)]
        self._spill: List[int] = [0] * n_banks
        self._max_spill = 0
        #: Upper bound on per-bank occupancy (never decays mid-window;
        #: an overestimate only shrinks the budget, which is safe).
        self._max_occ = 0
        # _hist[c] = number of *tracked* rows currently at count c (>= 1).
        self._hist: List[int] = [0] * (self.refresh_at + 1)
        self._max = 0
        self._floor = _floor_for(self.refresh_at)
        self._danger_at = self.refresh_at - 1 - self._floor
        self._floor_ok = self._danger_at > 0

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

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
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

    def on_refresh_window(self, now: float) -> None:
        size = self.n_banks * self.n_rows
        self._counts = np.zeros(size, dtype=np.int64)
        self._present = np.zeros(size, dtype=bool)
        self._bank_rows = [set() for _ in range(self.n_banks)]
        self._spill = [0] * self.n_banks
        self._max_spill = 0
        self._max_occ = 0
        self._hist = [0] * (self.refresh_at + 1)
        self._max = 0
        self.danger.clear()


class BlockHammerBatcher(MitigationBatcher):
    """BlockHammer: the per-bank count-min filters as one 2-D table.

    Epochs use the global-cell bound only (no danger screening): a
    count-min estimate is a min over cells, so no row's estimate — even
    of rows never activated, whose cells alias with hot rows — can exceed
    the largest filter cell. Steps hash through the reference's own
    ``_indices`` so the placement is identical by construction.
    """

    def __init__(self, blockhammer: BlockHammer, n_banks: int):
        super().__init__(blockhammer)
        self.filter_size = blockhammer.filter_size
        self.n_hashes = blockhammer.n_hashes
        self.quota = blockhammer.quota
        self._filters = np.zeros(
            (n_banks, blockhammer.filter_size), dtype=np.int64
        )
        self.throttled = 0
        self._max_cell = 0

    def _hash_indices(self, rows: np.ndarray) -> List[np.ndarray]:
        """Vectorized mirror of ``BlockHammer._indices`` (chained hash)."""
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
            indices_of = self.mitigation._indices
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

    def step(self, bank: int, row: int, now: float) -> Optional[Action]:
        counters = self._filters[bank]
        indices = self.mitigation._indices(row)
        max_cell = self._max_cell
        estimate = None
        for index in indices:
            cell = counters[index] + 1
            counters[index] = cell
            if cell > max_cell:
                max_cell = cell
        self._max_cell = int(max_cell)
        estimate = int(min(counters[index] for index in indices))
        if estimate > self.quota:
            self.throttled += 1
            return ([], 0.0, ((bank, THROTTLE_DELAY_NS),))
        return None

    def on_refresh_window(self, now: float) -> None:
        self._filters[:] = 0
        self._max_cell = 0

    def finalize(self) -> None:
        super().finalize()
        self.mitigation.throttled_activations = self.throttled


def make_batcher(
    mitigation: Mitigation, n_banks: int, n_rows: int
) -> MitigationBatcher:
    """The fastest exact batcher for a mitigation instance.

    Exact type matches get their array fast path; subclasses and unknown
    mechanisms (e.g. :class:`~repro.mitigations.adaptive.
    AdaptiveMitigation`) fall back to :class:`GenericBatcher`, which is
    slower but exact for anything.
    """
    batcher: MitigationBatcher
    kind = type(mitigation)
    if kind is Para:
        batcher = ParaBatcher(mitigation)
    elif kind is Mint:
        batcher = MintBatcher(mitigation, n_banks)
    elif kind is Prac:
        batcher = PracBatcher(mitigation, n_banks, n_rows)
    elif kind is Graphene:
        batcher = GrapheneBatcher(mitigation, n_banks, n_rows)
    elif kind is BlockHammer:
        batcher = BlockHammerBatcher(mitigation, n_banks)
    else:
        batcher = GenericBatcher(mitigation)
    obs.active().counter_add(
        f"mitigations.batcher.{type(batcher).__name__}"
    )
    return batcher
