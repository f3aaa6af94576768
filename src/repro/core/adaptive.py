"""Adaptive RDT discovery: DiscoRD-style early stopping (PAPERS.md).

The exhaustive campaign of Sec. 5 spends a fixed budget on every
(row, configuration) pair: ``n`` measurements, each a full hammer-count
sweep from ``guess/2`` upward in steps of ``guess/100`` until the first
bitflip (:class:`~repro.core.rdt.HammerSweep`). Appendix A prices that
protocol in *trials* — individual hammer-and-read schedules — and lands at
days of test time per chip. DiscoRD (Olgun et al.) observes that a
*reliable threshold estimate* needs far fewer trials: search each
measurement coarse-to-fine instead of sweeping the grid linearly, and stop
measuring a row once a sequential confidence test bounds its estimate.

This module layers that protocol over the existing batched measurement
path:

* **Coarse-to-fine search** — each measurement locates the first flipping
  grid point by geometric bracketing from a warm start (the previous
  measurement's grid index) followed by binary refinement:
  :func:`adaptive_search_trials` prices it in O(log distance) trials
  instead of the sweep's O(grid position).
* **Sequential confidence stopping** — after each refinement round a row's
  running mean gets a confidence interval (normal-approximation, inflated
  by an effective-sample-size correction for the series' lag-1
  autocorrelation). Rows whose interval half-width falls below the
  configured precision stop early; low-variance rows terminate after a
  handful of measurements.
* **Budget reallocation** — an optional per-run trial budget is spent
  round by round. Rows are funded in order of *running coefficient of
  variation* (highest first), so the remaining budget flows to the rows
  whose threshold is still uncertain — the measurement-allocation policy
  motivated by the spatial-variation study (Yağlıkçı et al.).

Determinism contract: all scheduling decisions (round targets, funding
order, stopping) are made centrally from per-row statistics, and every
measurement block is drawn through
:meth:`~repro.core.rdt.FastRdtMeter.measure_series_batch` with a
cumulative target length that is a pure function of those decisions.
Results therefore do not depend on how requests are grouped. Trial counts are *modeled hardware cost* (what Appendix A prices),
computed exactly from the measured grid indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import TestConfig
from repro.core.rdt import FastRdtMeter, HammerSweep
from repro.core.store import config_from_dict, config_to_dict
from repro.dram.module import DramModule
from repro.errors import ConfigurationError, MeasurementError

#: Payload format version for cached :class:`AdaptiveResult` entries.
ADAPTIVE_FORMAT = 1

#: Cache payload discriminator (checked by ``CampaignCache.load_adaptive``).
ADAPTIVE_KIND = "adaptive-campaign"

#: Projected trials per measurement before a row has produced any
#: statistics (round 0 budget planning); roughly two bracketing legs plus
#: binary refinement on the standard 250-point grid.
INITIAL_PROBE_ESTIMATE = 16

#: Stopping reasons recorded per row.
STOP_CONVERGED = "converged"
STOP_EXHAUSTED = "exhausted"
STOP_BUDGET = "budget"
STOP_NEVER_FLIPPED = "never_flipped"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive measurement schedule.

    Args:
        confidence: Coverage of the per-row confidence interval (the
            sequential test stops a row when its CI half-width meets the
            precision target).
        rel_precision: Target CI half-width as a fraction of the running
            mean.
        abs_precision: Absolute half-width floor (hammer counts); the
            effective target is ``max(abs, rel * mean)``.
        min_measurements: Measurements every row receives before the
            sequential test may stop it.
        max_measurements: Hard ceiling per row — matches the exhaustive
            series length it replaces, so ``exhausted`` rows cost no more
            than the exhaustive campaign's measurement count.
        budget: Optional total trial budget for the whole run (all rows,
            all configurations). ``None`` disables budget stopping. The
            budget is enforced between refinement rounds: a round already
            funded may overshoot by its own cost (on hardware, the
            overrun of an in-flight schedule is only visible once it
            retires).
    """

    confidence: float = 0.99
    rel_precision: float = 0.05
    abs_precision: float = 0.0
    min_measurements: int = 8
    max_measurements: int = 1000
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.rel_precision < 0 or self.abs_precision < 0:
            raise ConfigurationError("precision targets must be >= 0")
        if self.rel_precision == 0 and self.abs_precision == 0:
            raise ConfigurationError(
                "at least one of rel_precision/abs_precision must be > 0"
            )
        if self.min_measurements < 2:
            raise ConfigurationError("min_measurements must be >= 2")
        if self.max_measurements < self.min_measurements:
            raise ConfigurationError(
                "max_measurements must be >= min_measurements"
            )
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError("budget must be >= 1 (or None)")

    @property
    def z(self) -> float:
        """Two-sided normal quantile for :attr:`confidence`."""
        return NormalDist().inv_cdf(0.5 + self.confidence / 2.0)

    def to_dict(self) -> dict:
        """JSON-stable form (cache keys, payloads)."""
        return {
            "confidence": self.confidence,
            "rel_precision": self.rel_precision,
            "abs_precision": self.abs_precision,
            "min_measurements": self.min_measurements,
            "max_measurements": self.max_measurements,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdaptiveConfig":
        return cls(**payload)


# ----------------------------------------------------------------------
# Trial cost models
# ----------------------------------------------------------------------


def adaptive_search_trials(
    flip_index: int, grid_size: int, warm_start: Optional[int] = None
) -> int:
    """Trials the coarse-to-fine search spends locating one measurement.

    The search finds the smallest grid index at which the row flips
    (``flip_index``; ``grid_size`` means the row never flips inside the
    grid) by probing single hammer counts: start at ``warm_start`` (the
    previous measurement's index; grid midpoint when ``None``), bracket
    geometrically in the indicated direction, then binary-search the
    bracket. Every probe is one trial — one Table 4/5 measurement
    schedule on hardware.
    """
    if grid_size <= 0:
        return 0
    target = min(max(int(flip_index), 0), grid_size)
    if warm_start is None:
        pivot = grid_size // 2
    else:
        pivot = min(max(int(warm_start), 0), grid_size - 1)
    probes = 1
    lo = 0
    hi = grid_size
    if pivot >= target:
        # Pivot flips: the answer is at or below it. Widen downward.
        hi = pivot
        step = 1
        while hi > lo:
            lower = max(lo, hi - step)
            probes += 1
            if lower >= target:
                hi = lower
            else:
                lo = lower + 1
                break
            step *= 2
    else:
        # Pivot survives: the answer is above it. Widen upward.
        lo = pivot + 1
        step = 1
        while lo < grid_size:
            upper = min(grid_size - 1, lo + step - 1)
            probes += 1
            if upper >= target:
                hi = upper
                break
            lo = upper + 1
            step *= 2
    # Binary refinement inside the bracket.
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid >= target:
            hi = mid
        else:
            lo = mid + 1
    return probes


def sweep_flip_indices(values: np.ndarray, sweep: HammerSweep) -> np.ndarray:
    """First-flipping grid index of each measured value (``grid.size`` for
    NaN entries — sweeps that exhausted the grid)."""
    grid = sweep.grid()
    # NaN sorts past every grid point, landing exactly on grid.size.
    return np.searchsorted(grid, np.asarray(values, dtype=float), side="left")


def exhaustive_sweep_trials(values: np.ndarray, sweep: HammerSweep) -> int:
    """Trials Algorithm 1's linear sweep spends on these measurements.

    Each measurement costs one trial per grid point up to and including
    the first flip; a never-flipping sweep pays the whole grid.
    """
    grid_size = sweep.grid().size
    indices = sweep_flip_indices(values, sweep)
    return int(np.where(indices < grid_size, indices + 1, grid_size).sum())


def adaptive_series_trials(
    values: np.ndarray, sweep: HammerSweep, warm_start: Optional[int] = None
) -> Tuple[int, Optional[int]]:
    """Total coarse-to-fine trials for a measurement block, threading the
    warm start through consecutive measurements.

    Returns ``(trials, final_warm_start)`` so successive blocks of one row
    chain their warm starts.
    """
    grid_size = sweep.grid().size
    trials = 0
    warm = warm_start
    for index in sweep_flip_indices(values, sweep):
        trials += adaptive_search_trials(int(index), grid_size, warm)
        if index < grid_size:
            warm = int(index)
    return trials, warm


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class RowEstimate:
    """Adaptive threshold estimate of one (bank, row, configuration)."""

    module_id: str
    bank: int
    row: int
    config: TestConfig
    estimate: float  # running mean of measured RDT (NaN if never flipped)
    ci_half_width: float
    confidence: float
    std: float
    cv: float
    minimum: float
    guess: float
    grid_step: float
    n_measured: int
    n_valid: int
    trials: int
    exhaustive_trials: int  # linear-sweep cost of the same measurements
    stopping_reason: str

    @property
    def converged(self) -> bool:
        return self.stopping_reason == STOP_CONVERGED

    def to_dict(self) -> dict:
        return {
            "bank": self.bank,
            "row": self.row,
            "config": config_to_dict(self.config),
            "estimate": _json_float(self.estimate),
            "ci_half_width": _json_float(self.ci_half_width),
            "confidence": self.confidence,
            "std": _json_float(self.std),
            "cv": _json_float(self.cv),
            "minimum": _json_float(self.minimum),
            "guess": self.guess,
            "grid_step": self.grid_step,
            "n_measured": self.n_measured,
            "n_valid": self.n_valid,
            "trials": self.trials,
            "exhaustive_trials": self.exhaustive_trials,
            "stopping_reason": self.stopping_reason,
        }

    @classmethod
    def from_dict(cls, module_id: str, payload: dict) -> "RowEstimate":
        return cls(
            module_id=module_id,
            bank=int(payload["bank"]),
            row=int(payload["row"]),
            config=config_from_dict(payload["config"]),
            estimate=_load_float(payload["estimate"]),
            ci_half_width=_load_float(payload["ci_half_width"]),
            confidence=float(payload["confidence"]),
            std=_load_float(payload["std"]),
            cv=_load_float(payload["cv"]),
            minimum=_load_float(payload["minimum"]),
            guess=float(payload["guess"]),
            grid_step=float(payload["grid_step"]),
            n_measured=int(payload["n_measured"]),
            n_valid=int(payload["n_valid"]),
            trials=int(payload["trials"]),
            exhaustive_trials=int(payload["exhaustive_trials"]),
            stopping_reason=str(payload["stopping_reason"]),
        )


def _json_float(value: float) -> "float | None":
    return None if (value != value) else float(value)  # NaN -> null


def _load_float(value) -> float:
    return float("nan") if value is None else float(value)


@dataclass
class AdaptiveResult:
    """All row estimates of one adaptive run plus trials accounting."""

    module_id: str
    adaptive: AdaptiveConfig
    estimates: List[RowEstimate] = field(default_factory=list)
    rounds: int = 0
    budget_reallocations: int = 0

    def __len__(self) -> int:
        return len(self.estimates)

    # -- accounting ----------------------------------------------------

    @property
    def trials_spent(self) -> int:
        """Total adaptive trials across all rows and configurations."""
        return sum(estimate.trials for estimate in self.estimates)

    @property
    def exhaustive_trials_baseline(self) -> int:
        """Linear-sweep cost of a full exhaustive series per row, estimated
        from each row's own measured sweep positions (average observed
        sweep cost x ``max_measurements``)."""
        total = 0
        for estimate in self.estimates:
            if estimate.n_measured == 0:
                continue
            per_measurement = estimate.exhaustive_trials / estimate.n_measured
            total += int(
                round(per_measurement * self.adaptive.max_measurements)
            )
        return total

    @property
    def trial_reduction_estimate(self) -> float:
        """Estimated trials saved vs. the exhaustive campaign (>= 1 when
        the schedule wins)."""
        spent = self.trials_spent
        if spent == 0:
            return float("nan")
        return self.exhaustive_trials_baseline / spent

    def trials_per_row(self) -> List[int]:
        """Per-estimate trial counts (the shape priced by
        :meth:`repro.testtime.TestTimeEstimator.adaptive_cost`)."""
        return [estimate.trials for estimate in self.estimates]

    # -- groupings -----------------------------------------------------

    def valid_estimates(self) -> List[RowEstimate]:
        """Estimates of rows that flipped (excludes ``never_flipped``)."""
        return [e for e in self.estimates if e.n_valid > 0]

    def stopping_reasons(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for estimate in self.estimates:
            counts[estimate.stopping_reason] = (
                counts.get(estimate.stopping_reason, 0) + 1
            )
        return counts

    def for_config(self, config: TestConfig) -> List[RowEstimate]:
        return [e for e in self.estimates if e.config == config]

    # -- persistence ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": ADAPTIVE_FORMAT,
            "kind": ADAPTIVE_KIND,
            "module_id": self.module_id,
            "adaptive": self.adaptive.to_dict(),
            "rounds": self.rounds,
            "budget_reallocations": self.budget_reallocations,
            "estimates": [e.to_dict() for e in self.estimates],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AdaptiveResult":
        if payload.get("kind") != ADAPTIVE_KIND:
            raise MeasurementError(
                f"not an adaptive-campaign payload: {payload.get('kind')!r}"
            )
        module_id = str(payload["module_id"])
        result = cls(
            module_id=module_id,
            adaptive=AdaptiveConfig.from_dict(payload["adaptive"]),
            rounds=int(payload["rounds"]),
            budget_reallocations=int(payload["budget_reallocations"]),
        )
        result.estimates = [
            RowEstimate.from_dict(module_id, entry)
            for entry in payload["estimates"]
        ]
        return result


# ----------------------------------------------------------------------
# Per-row running state and the sequential test
# ----------------------------------------------------------------------


def running_statistics(
    values: np.ndarray, z: float
) -> Tuple[float, float, float, float]:
    """(mean, std, cv, ci_half_width) of the valid measurements so far.

    The half-width is a normal-approximation interval inflated by an
    effective-sample-size correction for lag-1 autocorrelation — VRD
    series are multi-state processes with long runs (paper Sec. 4.3), so
    an iid interval would be overconfident exactly on the rows that need
    more measurements.
    """
    valid = values[~np.isnan(values)]
    n = valid.size
    if n == 0:
        nan = float("nan")
        return nan, nan, nan, nan
    mean = float(valid.mean())
    if n < 2:
        return mean, float("nan"), float("nan"), float("inf")
    std = float(valid.std(ddof=1))
    cv = std / mean if mean else float("inf")
    rho = _lag1_autocorrelation(valid)
    ess = max(2.0, n * (1.0 - rho) / (1.0 + rho))
    half = z * std / math.sqrt(ess)
    return mean, std, cv, half


def _lag1_autocorrelation(valid: np.ndarray) -> float:
    """Lag-1 autocorrelation clipped to [0, 0.99] (0 below 8 samples)."""
    if valid.size < 8:
        return 0.0
    centered = valid - valid.mean()
    denominator = float(np.dot(centered, centered))
    if denominator == 0.0:
        return 0.0
    rho = float(np.dot(centered[:-1], centered[1:])) / denominator
    return min(max(rho, 0.0), 0.99)


@dataclass
class _RowState:
    """Scheduler-side bookkeeping for one (bank, row, configuration)."""

    key: int
    bank: int
    row: int
    config: TestConfig
    values: List[float] = field(default_factory=list)
    guess: Optional[float] = None
    sweep: Optional[HammerSweep] = None
    warm_start: Optional[int] = None
    trials: int = 0
    exhaustive_trials: int = 0
    mean: float = float("nan")
    std: float = float("nan")
    cv: float = float("nan")
    ci_half_width: float = float("inf")
    prev_mean: Optional[float] = None
    stopping_reason: Optional[str] = None

    @property
    def n_measured(self) -> int:
        return len(self.values)

    @property
    def n_valid(self) -> int:
        return sum(1 for value in self.values if value == value)

    @property
    def active(self) -> bool:
        return self.stopping_reason is None

    def ingest(self, guess: float, block: Sequence[float], z: float) -> None:
        if self.sweep is None:
            self.guess = float(guess)
            self.sweep = HammerSweep.from_guess(self.guess)
        block_array = np.asarray(block, dtype=float)
        block_trials, self.warm_start = adaptive_series_trials(
            block_array, self.sweep, self.warm_start
        )
        self.trials += block_trials
        self.exhaustive_trials += exhaustive_sweep_trials(
            block_array, self.sweep
        )
        self.values.extend(float(value) for value in block_array)
        self.mean, self.std, self.cv, self.ci_half_width = (
            running_statistics(np.asarray(self.values), z)
        )

    def apply_stopping(self, config: AdaptiveConfig) -> None:
        if not self.active:
            return
        if self.n_measured < config.min_measurements:
            self.prev_mean = self.mean
            return
        if self.n_valid == 0:
            self.stopping_reason = STOP_NEVER_FLIPPED
            return
        target = max(
            config.abs_precision, config.rel_precision * abs(self.mean)
        )
        # Convergence needs the CI criterion AND round-over-round mean
        # stability: VRD series are multi-state with long run lengths
        # (paper Sec. 4.3), so a short window stuck inside one state can
        # show a deceptively tight interval. Requiring the mean to survive
        # a doubling of the sample unchanged forces the window past state
        # transitions before a row may stop.
        stable = (
            self.prev_mean is not None
            and self.prev_mean == self.prev_mean
            and abs(self.mean - self.prev_mean) <= target
        )
        if self.n_valid >= 2 and self.ci_half_width <= target and stable:
            self.stopping_reason = STOP_CONVERGED
        elif self.n_measured >= config.max_measurements:
            self.stopping_reason = STOP_EXHAUSTED
        self.prev_mean = self.mean

    def projected_trials(self, n_new: int) -> int:
        """Budget-planning projection for ``n_new`` more measurements."""
        if self.n_measured == 0:
            return INITIAL_PROBE_ESTIMATE * n_new
        return int(math.ceil(self.trials / self.n_measured * n_new))

    def funding_priority(self) -> Tuple[float, int]:
        """Sort key: highest running CV first, unit order as tiebreak.

        Unprobed rows sort first (their uncertainty is total).
        """
        cv = self.cv if self.cv == self.cv else float("inf")
        return (-cv, self.key)

    def to_estimate(self, module_id: str, confidence: float) -> RowEstimate:
        valid = [value for value in self.values if value == value]
        return RowEstimate(
            module_id=module_id,
            bank=self.bank,
            row=self.row,
            config=self.config,
            estimate=self.mean,
            ci_half_width=self.ci_half_width,
            confidence=confidence,
            std=self.std,
            cv=self.cv,
            minimum=min(valid) if valid else float("nan"),
            guess=self.guess if self.guess is not None else float("nan"),
            grid_step=self.sweep.step if self.sweep is not None else 0.0,
            n_measured=self.n_measured,
            n_valid=self.n_valid,
            trials=self.trials,
            exhaustive_trials=self.exhaustive_trials,
            stopping_reason=self.stopping_reason or STOP_BUDGET,
        )


# ----------------------------------------------------------------------
# Measurement requests
# ----------------------------------------------------------------------

#: One measurement request: (key, bank, row, config, start, stop).
#: :func:`measure_requests` measures the row's series at cumulative length
#: ``stop`` through the batched fast path and returns the ``[start:stop)``
#: tail.
MeasureRequest = Tuple[int, int, int, TestConfig, int, int]

#: One reply: (key, guess, values_tail).
MeasureReply = Tuple[int, float, List[float]]


def measure_requests(
    module: DramModule, requests: Sequence[MeasureRequest]
) -> List[MeasureReply]:
    """Serve measurement requests through the batched device fast path.

    Requests are grouped by (bank, configuration, cumulative length) so
    each group costs one :meth:`~repro.core.rdt.FastRdtMeter.guess_rdt_batch`
    probe and one
    :meth:`~repro.core.rdt.FastRdtMeter.measure_series_batch` call. Per-row
    results are independent of grouping (the fastfaults contract).
    """
    groups: Dict[Tuple[int, TestConfig, int], List[MeasureRequest]] = {}
    for request in requests:
        _, bank, _, config, _, stop = request
        groups.setdefault((bank, config, stop), []).append(request)
    meters: Dict[int, FastRdtMeter] = {}
    replies: List[MeasureReply] = []
    for (bank, config, stop), group in groups.items():
        meter = meters.get(bank)
        if meter is None:
            meter = FastRdtMeter(module, bank)
            meters[bank] = meter
        module.set_temperature(config.temperature_c)
        rows = [row for _, _, row, _, _, _ in group]
        guesses = meter.guess_rdt_batch(rows, config)
        series_list = meter.measure_series_batch(rows, config, stop)
        for (key, _, _, _, start, _), guess, series in zip(
            group, guesses, series_list
        ):
            replies.append(
                (key, float(guess), series.values[start:].tolist())
            )
    return replies


# ----------------------------------------------------------------------
# The scheduler driver (executor-agnostic)
# ----------------------------------------------------------------------


class AdaptiveDriver:
    """Round-based adaptive scheduling over an external measurement
    executor.

    The driver owns all state: call :meth:`next_requests`, measure them,
    feed the replies to :meth:`ingest`, and repeat until
    :meth:`next_requests` returns an empty list; :meth:`finish` then
    yields the :class:`AdaptiveResult`. Decisions depend only on ingested
    values.
    """

    def __init__(
        self,
        module_id: str,
        pairs: Sequence[Tuple[int, int]],
        configs: Sequence[TestConfig],
        adaptive: Optional[AdaptiveConfig] = None,
    ):
        self.module_id = module_id
        self.adaptive = adaptive or AdaptiveConfig()
        pairs = [(int(bank), int(row)) for bank, row in pairs]
        if not pairs:
            raise MeasurementError("adaptive run needs at least one row")
        if len(set(pairs)) != len(pairs):
            raise MeasurementError("duplicate (bank, row) pairs")
        configs = list(configs)
        if not configs:
            raise MeasurementError(
                "adaptive run needs at least one configuration"
            )
        # Configuration-major unit order, like the campaign loop.
        self._states: List[_RowState] = [
            _RowState(
                key=config_index * len(pairs) + pair_index,
                bank=bank,
                row=row,
                config=config,
            )
            for config_index, config in enumerate(configs)
            for pair_index, (bank, row) in enumerate(pairs)
        ]
        self._by_key = {state.key: state for state in self._states}
        self.rounds = 0
        self.budget_reallocations = 0
        self._pending: Dict[int, int] = {}  # key -> requested stop

    # -- planning ------------------------------------------------------

    def _next_stop(self, state: _RowState) -> int:
        if state.n_measured == 0:
            return min(
                self.adaptive.min_measurements,
                self.adaptive.max_measurements,
            )
        return min(state.n_measured * 2, self.adaptive.max_measurements)

    def next_requests(self) -> List[MeasureRequest]:
        """Plan one refinement round (empty when the run is complete)."""
        if self._pending:
            raise MeasurementError(
                "previous round's replies were not ingested"
            )
        active = [state for state in self._states if state.active]
        if not active:
            return []
        funded: List[Tuple[_RowState, int]] = []
        starved_keys: List[int] = []
        remaining = self._budget_remaining()
        for state in sorted(active, key=_RowState.funding_priority):
            stop = self._next_stop(state)
            projected = state.projected_trials(stop - state.n_measured)
            if remaining is not None and projected > remaining:
                # Shrink the block to whatever the budget still affords
                # (the top-priority starved row soaks up the remainder).
                per = projected / (stop - state.n_measured)
                affordable = int(remaining // per)
                if affordable < 1:
                    state.stopping_reason = STOP_BUDGET
                    starved_keys.append(state.key)
                    continue
                stop = state.n_measured + affordable
                projected = state.projected_trials(affordable)
            if remaining is not None:
                remaining -= projected
            funded.append((state, stop))
        if starved_keys:
            # Funded rows that jumped ahead of a starved, earlier unit:
            # the CV ordering moved budget toward the uncertain rows.
            min_starved = min(starved_keys)
            self.budget_reallocations += sum(
                1 for state, _ in funded if state.key > min_starved
            )
        if not funded:
            return []
        self.rounds += 1
        requests: List[MeasureRequest] = []
        for state, stop in sorted(funded, key=lambda item: item[0].key):
            self._pending[state.key] = stop
            requests.append(
                (
                    state.key,
                    state.bank,
                    state.row,
                    state.config,
                    state.n_measured,
                    stop,
                )
            )
        return requests

    def _budget_remaining(self) -> Optional[int]:
        if self.adaptive.budget is None:
            return None
        spent = sum(state.trials for state in self._states)
        return max(0, self.adaptive.budget - spent)

    # -- ingest --------------------------------------------------------

    def ingest(self, replies: Iterable[MeasureReply]) -> None:
        z = self.adaptive.z
        for key, guess, values in sorted(replies, key=lambda r: r[0]):
            stop = self._pending.pop(key, None)
            if stop is None:
                raise MeasurementError(f"reply for unrequested unit {key}")
            state = self._by_key[key]
            if state.n_measured + len(values) != stop:
                raise MeasurementError(
                    f"unit {key}: expected {stop - state.n_measured} "
                    f"values, got {len(values)}"
                )
            state.ingest(guess, values, z)
            state.apply_stopping(self.adaptive)
        if self._pending:
            missing = sorted(self._pending)
            raise MeasurementError(f"round is missing replies for {missing}")

    # -- completion ----------------------------------------------------

    def finish(self) -> AdaptiveResult:
        if self._pending:
            raise MeasurementError("round in flight; ingest replies first")
        result = AdaptiveResult(
            module_id=self.module_id,
            adaptive=self.adaptive,
            rounds=self.rounds,
            budget_reallocations=self.budget_reallocations,
        )
        result.estimates = [
            state.to_estimate(self.module_id, self.adaptive.confidence)
            for state in self._states
        ]
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("adaptive.rounds", result.rounds)
            recorder.counter_add("adaptive.trials", result.trials_spent)
            recorder.counter_add(
                "adaptive.trials_exhaustive_est",
                result.exhaustive_trials_baseline,
            )
            recorder.counter_add(
                "adaptive.budget_reallocations", result.budget_reallocations
            )
            for reason, count in result.stopping_reasons().items():
                recorder.counter_add(f"adaptive.stop.{reason}", count)
        return result


# ----------------------------------------------------------------------
# Serial front-end
# ----------------------------------------------------------------------


class AdaptiveScheduler:
    """Adaptive RDT discovery on one in-process module.

    Runs :class:`AdaptiveDriver` rounds with measurements served inline
    through :func:`measure_requests`.
    """

    def __init__(
        self,
        module: DramModule,
        configs: Sequence[TestConfig],
        adaptive: Optional[AdaptiveConfig] = None,
        bank: int = 0,
    ):
        self.module = module
        self.configs = list(configs)
        self.adaptive = adaptive or AdaptiveConfig()
        self.bank = bank

    def run(self, rows: Iterable[int]) -> AdaptiveResult:
        return self.run_pairs((self.bank, row) for row in rows)

    def run_pairs(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> AdaptiveResult:
        recorder = obs.active()
        with recorder.span("adaptive.run_pairs"):
            driver = AdaptiveDriver(
                self.module.module_id, list(pairs), self.configs,
                self.adaptive,
            )
            while True:
                requests = driver.next_requests()
                if not requests:
                    break
                driver.ingest(measure_requests(self.module, requests))
            return driver.finish()
