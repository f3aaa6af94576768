"""RDT measurement: the paper's Algorithm 1.

Two interchangeable meters produce :class:`~repro.core.series.RdtSeries`:

* :class:`RdtMeter` drives the full DRAM Bender path — every trial
  initializes the Table 2 neighborhood, hammers double-sided, reads back and
  compares. This is the faithful route; its cost scales with hammer counts.
* :class:`FastRdtMeter` queries the device's latent threshold series
  directly and applies the identical hammer-count-grid quantization. It
  produces statistically identical series (same stochastic process, same
  grid semantics) at a tiny fraction of the cost, enabling the paper's
  100 000-measurement and multi-parameter campaigns on a laptop.

Both implement ``measure`` (one measurement) and ``measure_series``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0, DataPattern  # noqa: F401 (DataPattern re-exported for callers)
from repro.core.series import RdtSeries
from repro.dram import fastfaults
from repro.dram.module import DramModule
from repro.dram.traps import check_series_length
from repro.errors import MeasurementError

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from repro.bender.host import DramBender

#: Algorithm 1's vulnerability cutoff for victim selection.
DEFAULT_VICTIM_THRESHOLD = 40_000.0

#: Hammer-count ceiling for the coarse initial search.
DEFAULT_SEARCH_CEILING = 1_000_000


@dataclass(frozen=True)
class HammerSweep:
    """The hammer-count grid of one RDT measurement.

    Algorithm 1 sweeps from ``RDT_guess / 2`` to ``RDT_guess * 3`` in steps
    of ``RDT_guess / 100``.
    """

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise MeasurementError(
                f"sweep bounds must be finite, got start={self.start}, "
                f"stop={self.stop}, step={self.step}"
            )
        if self.step <= 0:
            raise MeasurementError(f"sweep step must be positive, got {self.step}")
        if self.stop <= self.start:
            raise MeasurementError("sweep stop must exceed start")

    @classmethod
    def from_guess(cls, guess: float) -> "HammerSweep":
        """The paper's sweep for a guessed RDT."""
        if not 0 < guess < math.inf:
            raise MeasurementError(
                f"RDT guess must be positive and finite, got {guess}"
            )
        return cls(start=guess / 2.0, stop=guess * 3.0, step=guess / 100.0)

    @property
    def n_points(self) -> int:
        return int(math.ceil((self.stop - self.start) / self.step))

    def grid(self) -> np.ndarray:
        """All hammer counts of the sweep, rounded to whole activations.

        The grid is built once per sweep and cached (read-only): quantize
        runs once per measurement series, and rebuilding the array per call
        was measurable at campaign scale.
        """
        cached = self.__dict__.get("_grid")
        if cached is None:
            cached = np.round(self.start + self.step * np.arange(self.n_points))
            cached.setflags(write=False)
            object.__setattr__(self, "_grid", cached)
        return cached

    def quantize(
        self, latent: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Measured value for each latent threshold, NaN past the grid.

        The measured RDT is the first grid hammer count at which the row
        flips, i.e. the smallest grid point >= the latent threshold (or the
        grid start when the threshold sits below it). Written into ``out``
        when given, which may be ``latent`` itself: the grid indices are
        taken before anything is written, and the only temporaries are
        the indices and one boolean mask.
        """
        grid = self.grid()
        latent = np.asarray(latent, dtype=float)
        indices = np.searchsorted(grid, latent, side="left")
        measured = np.empty(latent.shape) if out is None else out
        np.take(grid, indices, out=measured, mode="clip")
        measured[indices == grid.size] = np.nan
        return measured


@dataclass
class RdtMeasurementResult:
    """One measurement outcome with its sweep cost."""

    value: float  # NaN when the sweep exhausted the grid
    trials: int
    flipped_bits: List[int]


class RdtMeter:
    """Algorithm 1 over the full DRAM Bender trial path.

    Every trial is ``DramBender.run_trial``: the host compiles the trial
    program once per (victim, pattern, tAggOn) and replays it with
    per-trial hammer counts (:mod:`repro.bender.compiler`).
    """

    def __init__(self, bender: "DramBender", bank: int = 0):
        self.bender = bender
        self.bank = bank

    @property
    def module(self) -> DramModule:
        return self.bender.module

    def measure(
        self,
        victim: int,
        config: TestConfig,
        sweep: HammerSweep,
    ) -> RdtMeasurementResult:
        """One RDT measurement: sweep hammer counts until the first flip."""
        self.bender.begin_measurement(
            self.bank, victim, config.pattern, config.t_agg_on_ns
        )
        trials = 0
        for hammer_count in sweep.grid():
            trials += 1
            flips = self.bender.run_trial(
                self.bank,
                victim,
                config.pattern,
                int(hammer_count),
                config.t_agg_on_ns,
            )
            if flips:
                return RdtMeasurementResult(
                    value=float(hammer_count), trials=trials, flipped_bits=flips
                )
        return RdtMeasurementResult(value=float("nan"), trials=trials, flipped_bits=[])

    def measure_series(
        self,
        victim: int,
        config: TestConfig,
        n: int,
        sweep: Optional[HammerSweep] = None,
    ) -> RdtSeries:
        """``n`` successive measurements (Algorithm 1's test_loop)."""
        check_series_length(n)
        if sweep is None:
            guess = self.guess_rdt(victim, config)
            sweep = HammerSweep.from_guess(guess)
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("rdt.series.trial_path")
            recorder.counter_add("rdt.measurements", n)
        values = np.empty(n)
        for index in range(n):
            values[index] = self.measure(victim, config, sweep).value
        return RdtSeries(
            values,
            module_id=self.module.module_id,
            bank=self.bank,
            row=victim,
            config_label=config.label(),
            grid_step=sweep.step,
        )

    def guess_rdt(
        self, victim: int, config: TestConfig, repeats: int = 10
    ) -> float:
        """Algorithm 1's guess_RDT: mean over ``repeats`` measurements.

        Bootstraps with a coarse doubling search to locate the right order
        of magnitude, then refines with the standard sweep.
        """
        fastfaults.check_probe_repeats(repeats)
        coarse = self._coarse_search(victim, config)
        sweep = HammerSweep.from_guess(coarse)
        values = []
        for _ in range(repeats):
            outcome = self.measure(victim, config, sweep)
            if not math.isnan(outcome.value):
                values.append(outcome.value)
        if not values:
            raise MeasurementError(
                f"row {victim}: no flips during guess_RDT refinement"
            )
        return float(np.mean(values))

    def _coarse_search(
        self, victim: int, config: TestConfig, floor: int = 512
    ) -> float:
        """Doubling search for the first hammer count that flips the row."""
        hammer_count = floor
        self.bender.begin_measurement(
            self.bank, victim, config.pattern, config.t_agg_on_ns
        )
        while hammer_count <= DEFAULT_SEARCH_CEILING:
            flips = self.bender.run_trial(
                self.bank,
                victim,
                config.pattern,
                hammer_count,
                config.t_agg_on_ns,
            )
            if flips:
                return float(hammer_count)
            hammer_count *= 2
        raise MeasurementError(
            f"row {victim} shows no read disturbance below "
            f"{DEFAULT_SEARCH_CEILING} hammers"
        )


class FastRdtMeter:
    """Grid-quantized measurements straight from the device's VRD process.

    Statistically equivalent to :class:`RdtMeter` (identical latent process
    and grid semantics) without per-trial row writes — the workhorse for
    the 100k-measurement and campaign-scale experiments.
    """

    def __init__(self, module: DramModule, bank: int = 0):
        self.module = module
        self.bank = bank

    def _condition(self, config: TestConfig):
        return config.condition(self.module.timing)

    def _process(self, victim: int):
        mapping = self.module.bank(self.bank).mapping
        return self.module.fault_model.process(
            self.bank, mapping.to_physical(victim)
        )

    def guess_rdt(self, victim: int, config: TestConfig, repeats: int = 10) -> float:
        """Mean of ``repeats`` latent samples from a dedicated guess stream."""
        fastfaults.check_probe_repeats(repeats)
        process = self._process(victim)
        samples = process.latent_series(
            self._condition(config), repeats, stream="guess"
        )
        return float(samples.mean())

    def guess_rdt_batch(
        self,
        victims: Sequence[int],
        config: TestConfig,
        repeats: int = 10,
    ) -> np.ndarray:
        """:meth:`guess_rdt` for many victims in one call, bit-identical.

        Routes through the fault model's batched probe, which serves the
        guess draws from a packed :class:`~repro.dram.fastfaults.BankVrdState`
        without materializing :class:`~repro.dram.faults.RowVrdProcess`
        objects (or warming the module's per-row process cache). Row
        selection probes thousands of rows per module; this is its fast path.
        """
        mapping = self.module.bank(self.bank).mapping
        physical = [mapping.to_physical(victim) for victim in victims]
        return self.module.fault_model.probe_guess_means(
            self.bank, physical, self._condition(config), repeats=repeats
        )

    def measure_series(
        self,
        victim: int,
        config: TestConfig,
        n: int,
        sweep: Optional[HammerSweep] = None,
        stream: str = "series",
    ) -> RdtSeries:
        """``n`` successive grid-quantized measurements, quantized block by
        block into one output array."""
        check_series_length(n)
        if sweep is None:
            sweep = HammerSweep.from_guess(self.guess_rdt(victim, config))
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("rdt.series.fast")
            recorder.counter_add("rdt.measurements", n)
        process = self._process(victim)
        values = np.empty(n)
        for start, latent in process.latent_blocks(
            self._condition(config), n, stream=stream
        ):
            sweep.quantize(latent, out=values[start:start + latent.size])
        return RdtSeries(
            values,
            module_id=self.module.module_id,
            bank=self.bank,
            row=victim,
            config_label=config.label(),
            grid_step=sweep.step,
        )

    def measure_series_batch(
        self,
        victims: Sequence[int],
        config: TestConfig,
        n: int,
        stream: str = "series",
        guess_repeats: int = 10,
    ) -> List[RdtSeries]:
        """One :meth:`measure_series` per victim, through the bulk device
        fast path.

        Bit-identical to looping ``guess_rdt`` + ``measure_series`` per
        victim: latent series and guesses both come from the packed
        :class:`~repro.dram.fastfaults.BankVrdState` of these rows (built
        once, then reused by the probe), stream-exact against the scalar
        :class:`~repro.dram.faults.RowVrdProcess` route. This is what the
        campaign loop consumes. Each row is quantized in place, so the
        returned series are views of one ``(rows, n)`` matrix and no
        second full-size copy exists.
        """
        victims = list(victims)
        if not victims:
            return []
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("rdt.series.fast_batch", len(victims))
            recorder.counter_add("rdt.measurements", len(victims) * n)
        condition = self._condition(config)
        mapping = self.module.bank(self.bank).mapping
        physical = [mapping.to_physical(victim) for victim in victims]
        model = self.module.fault_model
        latent = model.latent_series_bank(
            self.bank, physical, condition, n, stream=stream
        )
        guesses = model.probe_guess_means(
            self.bank, physical, condition, repeats=guess_repeats
        )
        series: List[RdtSeries] = []
        for index, victim in enumerate(victims):
            sweep = HammerSweep.from_guess(float(guesses[index]))
            series.append(
                RdtSeries(
                    sweep.quantize(latent[index], out=latent[index]),
                    module_id=self.module.module_id,
                    bank=self.bank,
                    row=victim,
                    config_label=config.label(),
                    grid_step=sweep.step,
                )
            )
        return series


def guess_rdt(meter, victim: int, config: TestConfig, repeats: int = 10) -> float:
    """Module-level convenience mirroring Algorithm 1's guess_RDT."""
    return meter.guess_rdt(victim, config, repeats)


#: Rows probed per chunk when find_victim batches its guesses. Chunking
#: keeps the early-exit property: a qualifying row in the first chunk
#: costs one batched probe, not a scan of the full candidate list.
FIND_VICTIM_CHUNK = 256


def find_victim(
    meter,
    rows: Sequence[int],
    config: Optional[TestConfig] = None,
    threshold: float = DEFAULT_VICTIM_THRESHOLD,
    repeats: int = 10,
) -> Tuple[float, int]:
    """Algorithm 1's find_victim: first row whose mean RDT is below the
    vulnerability threshold.

    :class:`FastRdtMeter` candidates are probed through
    :meth:`FastRdtMeter.guess_rdt_batch` in chunks of
    :data:`FIND_VICTIM_CHUNK` — bit-identical guesses, same
    first-qualifying-row answer, one vectorized probe per chunk instead of
    one Python round-trip per row. Other meters keep the per-row loop
    (skipping rows whose guess fails outright).

    Returns:
        ``(rdt_guess, victim_row)``.

    Raises:
        MeasurementError: When no row in ``rows`` qualifies.
    """
    if config is None:
        config = TestConfig(CHECKERED0, t_agg_on_ns=35.0, temperature_c=50.0)
    rows = list(rows)
    recorder = obs.active()
    if isinstance(meter, FastRdtMeter):
        for start in range(0, len(rows), FIND_VICTIM_CHUNK):
            chunk = rows[start:start + FIND_VICTIM_CHUNK]
            guesses = meter.guess_rdt_batch(chunk, config, repeats)
            if recorder.enabled:
                recorder.counter_add("rdt.find_victim.probed", len(chunk))
            for row, guess in zip(chunk, guesses.tolist()):
                if guess < threshold:
                    return float(guess), row
        raise MeasurementError(
            f"no row among {len(rows)} candidates has mean RDT below "
            f"{threshold}"
        )
    for row in rows:
        try:
            guess = meter.guess_rdt(row, config, repeats)
        except MeasurementError:
            continue
        if guess < threshold:
            return guess, row
    raise MeasurementError(
        f"no row among {len(rows)} candidates has mean RDT below {threshold}"
    )
