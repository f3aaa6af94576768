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

import numpy as np

from repro.errors import ConfigurationError

#: Transition probabilities are clamped away from 0/1 so sojourn times stay
#: finite and the geometric sampler below stays well-defined.
_MIN_P = 1e-9
_MAX_P = 1.0 - 1e-9

#: Smallest geometric batch :func:`sample_occupancy_series` draws. Every
#: run lasts at least one step, so a series of at most this many steps is
#: always covered by the first batch.
_MIN_BATCH = 16


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

    @property
    def switch_rate(self) -> float:
        """Stationary per-step probability that the state changes."""
        pi = self.stationary_occupancy
        return pi * self.p_release + (1.0 - pi) * self.p_occupy

    def step(self, occupied: bool, rng: np.random.Generator) -> bool:
        """Advance the chain one step and return the new state."""
        p_leave = self.p_release if occupied else self.p_occupy
        if rng.random() < p_leave:
            return not occupied
        return occupied

    def sample_initial(self, rng: np.random.Generator) -> bool:
        """Draw the initial state from the stationary distribution."""
        return bool(rng.random() < self.stationary_occupancy)


def check_series_length(n: int) -> None:
    """The rule every measurement-series length obeys."""
    if n < 0:
        raise ConfigurationError(f"series length must be >= 0, got {n}")


def sample_occupancy_series(
    trap: Trap,
    n: int,
    rng: np.random.Generator,
    initial: "bool | None" = None,
) -> np.ndarray:
    """Simulate ``n`` steps of a trap's occupancy, vectorized.

    Instead of stepping the chain ``n`` times, we exploit that sojourn times
    in each state are geometric: draw alternating run lengths and expand
    them with ``np.repeat``. This makes 100 000-measurement series (Fig. 1)
    cheap even for slow traps.

    Returns:
        Boolean array of length ``n``; ``True`` means occupied.
    """
    check_series_length(n)
    if n == 0:
        return np.zeros(0, dtype=bool)

    state = trap.sample_initial(rng) if initial is None else bool(initial)
    p_occupy = min(max(trap.p_occupy, _MIN_P), _MAX_P)
    p_release = min(max(trap.p_release, _MIN_P), _MAX_P)

    states: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    covered = 0
    while covered < n:
        # Expected steps per run alternate between the two sojourn means;
        # draw a batch sized to likely finish in one pass.
        mean_run = 0.5 * (1.0 / p_occupy + 1.0 / p_release)
        batch = max(_MIN_BATCH, int((n - covered) / mean_run * 1.5) + 8)
        # Alternating states within the batch.
        batch_states = np.empty(batch, dtype=bool)
        batch_states[0::2] = state
        batch_states[1::2] = not state
        leave_probs = np.where(batch_states, p_release, p_occupy)
        batch_lengths = rng.geometric(leave_probs)
        # A run reaching past the end of the series only matters up to it:
        # capping every run at the remaining length bounds the expansion
        # by ``n`` instead of by ~1/p, and leaves ``series[:n]`` unchanged.
        np.minimum(batch_lengths, n - covered, out=batch_lengths)
        states.append(batch_states)
        lengths.append(batch_lengths)
        covered += int(batch_lengths.sum())
        # Continue from the state *after* the last completed run: runs
        # alternate, so the next one flips the last state.
        state = not bool(batch_states[-1])

    all_states = np.concatenate(states)
    all_lengths = np.concatenate(lengths)
    series = np.repeat(all_states, all_lengths)
    return series[:n]


def occupancy_matrix(
    traps: "list[Trap]",
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate all traps of a row for ``n`` steps.

    Returns:
        Boolean array of shape ``(n, len(traps))``.
    """
    if not traps:
        return np.zeros((n, 0), dtype=bool)
    columns = [sample_occupancy_series(trap, n, rng) for trap in traps]
    return np.stack(columns, axis=1)


def multiplier_series(
    traps: "list[Trap]",
    depth_factor: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """RDT multiplier per step: product of (1 - effective depth) over
    occupied traps.

    ``depth_factor`` scales every trap's depth for the current test
    condition (data pattern / tAggOn / temperature sensitivity); effective
    depths are clipped below 0.95 so the multiplier stays positive.
    """
    if depth_factor < 0:
        raise ConfigurationError(f"depth_factor must be >= 0, got {depth_factor}")
    if not traps:
        return np.ones(n)
    occupancy = occupancy_matrix(traps, n, rng)
    depths = np.array([trap.depth for trap in traps])
    effective = np.minimum(depths * depth_factor, 0.95)
    log_terms = np.log1p(-effective)
    log_multiplier = occupancy @ log_terms
    return np.exp(log_multiplier)
