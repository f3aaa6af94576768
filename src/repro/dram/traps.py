"""Two-state charge traps with random-telegraph-noise dynamics.

The paper's hypothetical explanation for VRD (Sec. 4.2) is that electron
migration/injection into the victim cell is assisted by charge traps in the
shared active region whose occupied/unoccupied states change randomly over
time — the same mechanism class behind DRAM variable retention time. We model
each trap as a two-state Markov chain clocked once per RDT measurement (see
DESIGN.md for the dwell-time simplification): when occupied, a trap lowers
the row's instantaneous read disturbance threshold by a fractional *depth*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Transition probabilities are clamped away from 0/1 so sojourn times stay
#: finite and the geometric sampler below stays well-defined.
_MIN_P = 1e-9
_MAX_P = 1.0 - 1e-9

#: Smallest geometric batch :func:`fill_occupancy` draws. Every run
#: lasts at least one step, so a series of at most this many steps is
#: always covered by the first batch.
_MIN_BATCH = 16

#: Most run lengths one draw call asks for. A batch larger than this is
#: drawn in consecutive sub-draws; numpy draws element by element, so the
#: values are those of one call. Even, so every sub-draw opens in the
#: batch's first state.
_SUB_DRAW = 1 << 16

#: Steps one run-expansion window covers before it is packed into bits; a
#: multiple of 8, so every window fills whole bytes.
_WINDOW = 1 << 16

#: Rows of one block of a long series' log-multiplier product. numpy runs
#: an ``(m, traps) @ (traps,)`` product as one BLAS ``gemv``, whose
#: OpenBLAS kernel sums rows in groups of four and the remainder rows with
#: a different instruction sequence. A block that starts at a multiple of
#: four therefore gives every row the sum the one-shot product gives it.
#: Two more rules keep that true: numpy sends a one-row product to ``dot``
#: instead, so a one-row tail joins the block before it; and ``8192 *
#: traps`` stays below OpenBLAS's threading threshold (460,800 elements)
#: up to 56 traps, while a block past it splits between two threads at
#: row 4,096, again a multiple of four.
SERIES_BLOCK = 8192

# Alternating-state template: runs alternate between the two states, so a
# slice starting at 0 or 1 gives the states of up to one sub-draw of runs.
_ALT = np.empty(_SUB_DRAW + 1, dtype=bool)
_ALT[0::2] = True
_ALT[1::2] = False


@dataclass(frozen=True)
class Trap:
    """One charge trap attached to a DRAM row.

    Attributes:
        depth: Fractional reduction of the row's instantaneous RDT while the
            trap is occupied (0 < depth < 1).
        p_occupy: Per-step probability of an unoccupied trap becoming
            occupied.
        p_release: Per-step probability of an occupied trap emptying.
    """

    depth: float
    p_occupy: float
    p_release: float

    def __post_init__(self) -> None:
        if not 0.0 < self.depth < 1.0:
            raise ConfigurationError(f"trap depth must be in (0, 1), got {self.depth}")
        for name in ("p_occupy", "p_release"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"trap {name} must be in (0, 1], got {value}"
                )

    @property
    def stationary_occupancy(self) -> float:
        """Long-run fraction of time the trap spends occupied."""
        return self.p_occupy / (self.p_occupy + self.p_release)

    def sample_initial(self, rng: np.random.Generator) -> bool:
        """Draw the initial state from the stationary distribution."""
        return bool(rng.random() < self.stationary_occupancy)


def check_series_length(n: int) -> None:
    """The rule every measurement-series length obeys."""
    if n < 0:
        raise ConfigurationError(f"series length must be >= 0, got {n}")


class _RunWriter:
    """Expands alternating runs into one trap's occupancy.

    The output is either a bool array of the ``n`` steps, which is then
    itself the one expansion window, or ``ceil(n / 8)`` bytes of packed
    bits: runs are then expanded one :data:`_WINDOW` of steps at a time into
    a bool staging window, packed once it is full (or the series ends).
    Steps past ``n`` are dropped, so the expansion costs the window, not
    the longest run.
    """

    __slots__ = ("bits", "n", "pos", "stage", "window")

    def __init__(self, out: np.ndarray, n: int):
        self.n = n
        self.pos = 0
        if out.dtype == bool:
            self.bits, self.stage, self.window = None, out, n
        else:
            self.bits, self.window = out, _WINDOW
            self.stage = np.empty(min(n, _WINDOW), dtype=bool)

    def add(self, state: bool, lengths: np.ndarray, total: int) -> None:
        """Append runs of ``lengths`` (``total`` steps in all) whose states
        alternate from ``state``."""
        pos, n, window = self.pos, self.n, self.window
        if pos >= n:
            return
        base = pos - pos % window
        stop = min(pos + total, n)
        if total <= _WINDOW and stop <= base + window:
            # The kept steps lie in one window: one expansion of at most
            # :data:`_WINDOW` steps.
            states = _ALT[0 if state else 1:][:lengths.size]
            self.stage[pos - base:stop - base] = np.repeat(states, lengths)[:stop - pos]
            self._advance(base, stop)
            return
        ends = np.cumsum(lengths)
        ends += pos
        last = int(np.searchsorted(ends, n))
        if last < ends.size:
            ends = ends[:last + 1]
            ends[-1] = n
        run = 0  # the run holding step ``pos``
        while pos < stop:
            base = pos - pos % window
            end = min(base + window, stop)
            last = int(np.searchsorted(ends, end))  # the run holding step end - 1
            segment = ends[run:last + 1]
            runs = np.empty(segment.size, dtype=np.int64)
            runs[0] = segment[0] - pos
            np.subtract(segment[1:], segment[:-1], out=runs[1:])
            runs[-1] -= segment[-1] - end
            offset = 0 if (run % 2 == 0) == state else 1
            states = _ALT[offset:offset + segment.size]
            self.stage[pos - base:end - base] = np.repeat(states, runs)
            self._advance(base, end)
            pos = end
            run = last + 1 if segment[-1] == end else last

    def _advance(self, base: int, pos: int) -> None:
        """Mark steps up to ``pos`` written, packing the window starting at
        ``base`` once it is full or the series is complete."""
        if self.bits is not None and (pos == self.n or pos == base + _WINDOW):
            self.bits[base // 8:(pos + 7) // 8] = np.packbits(self.stage[:pos - base])
        self.pos = pos


def geometric_runs(rng: np.random.Generator, p_occupy: float, p_release: float):
    """Run-length drawer for :func:`fill_occupancy`: ``rng.geometric`` on
    the alternating leave probabilities of runs opening in a state."""

    def draw(state: bool, size: int) -> np.ndarray:
        leave_probs = np.empty(size)
        leave_probs[0::2] = p_release if state else p_occupy
        leave_probs[1::2] = p_occupy if state else p_release
        return rng.geometric(leave_probs)

    return draw


def fill_occupancy(
    out: np.ndarray, n: int, state: bool, mean_run: float, draw_runs
) -> None:
    """The occupancy sampler: ``n`` steps of a two-state chain.

    Instead of stepping the chain ``n`` times, we exploit that sojourn times
    in each state are geometric: draw batches of alternating run lengths
    (``draw_runs(first_state, size)``) and expand them into ``out``, a bool
    array of ``n`` steps or ``ceil(n / 8)`` bytes in ``np.packbits``
    order. Each batch is sized to likely finish the series in one pass; a
    batch larger than :data:`_SUB_DRAW` is drawn in sub-draws of that size,
    which yields the same values, so memory stays bounded by the sub-draw
    and the output rather than by the batch.
    """
    writer = _RunWriter(out, n)
    covered = 0
    while covered < n:
        # Expected steps per run alternate between the two sojourn means.
        batch = max(_MIN_BATCH, int((n - covered) / mean_run * 1.5) + 8)
        # Every run is capped at the length remaining when the batch began:
        # ``covered``, and so the size of any next batch, depends on it.
        cap = n - covered
        for start in range(0, batch, _SUB_DRAW):
            lengths = draw_runs(state, min(_SUB_DRAW, batch - start))
            np.minimum(lengths, cap, out=lengths)
            total = int(lengths.sum())
            covered += total
            writer.add(state, lengths, total)
        # Runs alternate, so the next batch opens opposite the last run.
        if batch & 1:
            state = not state


def sample_occupancy_series(
    trap: Trap,
    n: int,
    rng: np.random.Generator,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Simulate ``n`` steps of a trap's occupancy, vectorized (see
    :func:`fill_occupancy`), from a stationary initial state.

    Returns ``out`` (a new bool array of ``n`` steps unless given); ``True``
    or a set bit means occupied.
    """
    check_series_length(n)
    if out is None:
        out = np.empty(n, dtype=bool)
    if n == 0:
        return out
    state = trap.sample_initial(rng)
    p_occupy = min(max(trap.p_occupy, _MIN_P), _MAX_P)
    p_release = min(max(trap.p_release, _MIN_P), _MAX_P)
    mean_run = 0.5 * (1.0 / p_occupy + 1.0 / p_release)
    fill_occupancy(out, n, state, mean_run, geometric_runs(rng, p_occupy, p_release))
    return out


def new_occupancy(n_traps: int, n: int) -> np.ndarray:
    """Output for the occupancy of a row's traps over ``n`` steps: a C-ordered
    ``(n, traps)`` bool matrix when the series is one block, else one row of
    ``ceil(n / 8)`` packed bytes per trap. :func:`trap_outputs` gives each
    trap's part."""
    if n <= SERIES_BLOCK + 1:
        return np.empty((n, n_traps), dtype=bool)
    return np.empty((n_traps, (n + 7) // 8), dtype=np.uint8)


def trap_outputs(occupancy: np.ndarray) -> np.ndarray:
    """Trap ``j``'s output in :func:`new_occupancy`'s array, as item ``j``."""
    return occupancy.T if occupancy.dtype == bool else occupancy


def log_depth_terms(depths: np.ndarray, depth_factor) -> np.ndarray:
    """Per-trap ``log(1 - effective depth)``.

    ``depth_factor`` scales every trap's depth for the current test
    condition (data pattern / tAggOn / temperature sensitivity), one
    factor for all traps or one per trap; effective depths are clipped
    below 0.95 so the multiplier stays positive.
    """
    if np.any(np.less(depth_factor, 0)):
        raise ConfigurationError(f"depth_factor must be >= 0, got {depth_factor}")
    return np.log1p(-np.minimum(depths * depth_factor, 0.95))


def block_values(
    occupancy: np.ndarray,
    log_terms: np.ndarray,
    level: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Latent thresholds of one block of steps.

    ``level * exp(occupancy @ log_terms) * exp(normal(0, sigma))`` per row
    of the C-ordered ``(steps, traps)`` 0/1 ``occupancy`` matrix: the RDT
    multiplier is the product of ``1 - effective depth`` over occupied
    traps, and the residual normals are drawn here, one per step.
    """
    if log_terms.size:
        values = level * np.exp(occupancy @ log_terms)
    else:
        values = np.full(occupancy.shape[0], level)
    values *= np.exp(rng.normal(0.0, sigma, occupancy.shape[0]))
    return values


def latent_blocks(
    occupancy: np.ndarray,
    n: int,
    log_terms: np.ndarray,
    level: float,
    sigma: float,
    rng: np.random.Generator,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, values)`` for each block of :data:`SERIES_BLOCK`
    steps of a latent series whose occupancy :func:`new_occupancy` holds.

    Bit-identical to one ``(n, traps)`` product and one ``normal(0, sigma,
    n)`` draw after all traps (see :data:`SERIES_BLOCK`), with memory
    bounded by one block.
    """
    if occupancy.dtype == bool:
        if n:
            yield 0, block_values(occupancy, log_terms, level, sigma, rng)
        return
    rows = np.empty((SERIES_BLOCK + 1, log_terms.size))
    start = 0
    while start < n:
        stop = start + SERIES_BLOCK
        if stop >= n - 1:  # a one-row tail joins this block
            stop = n
        block = rows[:stop - start]
        if log_terms.size:
            block[...] = np.unpackbits(
                occupancy[:, start // 8:(stop + 7) // 8], axis=1, count=stop - start
            ).T
        yield start, block_values(block, log_terms, level, sigma, rng)
        start = stop
