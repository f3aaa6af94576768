"""Attack-vs-mitigation security evaluation under VRD.

Model: a double-sided RowHammer attacker targets one victim row and hammers
as fast as the bus allows, every refresh window, forever. A mitigation
configured with threshold T bounds the *effective hammers* the victim can
accrue before a preventive refresh resets its exposure:

* **Graphene** preventively refreshes a victim when either aggressor's
  tracked count reaches T/2, so a balanced double-sided victim accrues at
  most ~T/2 effective hammers between refreshes (deterministic bound);
* **PRAC** back-offs at its power-of-two quantized threshold
  (~0.8 T), bounding exposure there;
* **PARA** refreshes each aggressor's neighbors with probability p per
  activation; the victim's exposure between refreshes is geometric with
  per-effective-hammer success 2p (two aggressors);
* **MINT** guarantees one mitigation per RFM interval, but the *sampled*
  row must be an aggressor: an attacker diluting the bank's activation
  stream with decoy rows survives a fraction of intervals, making exposure
  a geometric number of intervals of T/4 activations each.

Each refresh window draws the victim's instantaneous RDT from its VRD
process (one latent state per window — the same dwell simplification used
everywhere). The victim flips in the first window whose exposure reaches
its instantaneous threshold. Because VRD's minimum appears rarely and
late, a threshold configured from few measurements is exactly the paper's
insecurity: the experiment measures how many windows an attacker needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import TestConfig
from repro.dram.module import DramModule
from repro.errors import ConfigurationError
from repro.mitigations.mint import RFM_DIVISOR
from repro.mitigations.para import para_probability
from repro.mitigations.prac import BACKOFF_HEADROOM, quantize_pow2
from repro.rng import derive

#: Supported mitigation kinds.
KINDS = ("graphene", "prac", "para", "mint", "none")


def exposure_windows(
    kind: str,
    threshold: float,
    rng: np.random.Generator,
    windows: int,
    max_exposure: float = 1e7,
    mint_dilution: float = 0.5,
) -> np.ndarray:
    """All per-window exposures of one attack run, drawn in one shot.

    Bit-identical to ``windows`` successive scalar draws on the same
    generator (the ``attack`` pair's oracle in ``tests/differential/
    harness.py``): the deterministic kinds never touch the RNG, and
    numpy's batched geometric sampler draws element-sequentially, so
    ``rng.geometric(p, size=n)`` equals ``n`` scalar draws (the same
    stream-mirror rule :mod:`repro.dram.fastfaults` relies on).
    """
    if windows < 1:
        raise ConfigurationError("need at least one window")
    key = kind.strip().lower()
    if key == "none":
        return np.full(windows, max_exposure)
    if threshold < 1.0:
        raise ConfigurationError("threshold must be >= 1")
    if key == "graphene":
        return np.full(windows, min(threshold / 2.0, max_exposure))
    if key == "prac":
        backoff_at = quantize_pow2(threshold * BACKOFF_HEADROOM)
        return np.full(windows, min(float(backoff_at), max_exposure))
    if key == "para":
        p = para_probability(threshold)
        per_hammer = 1.0 - (1.0 - p) ** 2
        if per_hammer >= 1.0:
            return np.full(windows, 1.0)
        draws = rng.geometric(per_hammer, size=windows).astype(float)
        return np.minimum(draws, max_exposure)
    if key == "mint":
        interval = quantize_pow2(threshold / RFM_DIVISOR)
        survive = min(max(mint_dilution, 0.0), 0.999)
        per_interval = interval * (1.0 - survive) / 2.0
        intervals = rng.geometric(1.0 - survive, size=windows).astype(float)
        # Same elementwise op order as the scalar expression.
        return np.minimum(intervals * interval / 2.0 + per_interval, max_exposure)
    raise ConfigurationError(f"unknown mitigation kind {kind!r}")


#: Exposure chunk sizes of :func:`attack_escape`: the first chunk is
#: small because most attacks that flip do so early, and later chunks
#: double up to the cap that bounds the run's memory.
_MIN_CHUNK = 256
_MAX_CHUNK = 4096


@dataclass
class AttackOutcome:
    """Result of attacking one victim row for many refresh windows."""

    kind: str
    threshold: float
    windows: int
    flipped: bool
    first_flip_window: Optional[int]
    min_rdt_seen: float
    min_exposure_margin: float  # min over windows of (rdt - exposure)/rdt


def attack_escape(
    module: DramModule,
    victim: int,
    config: TestConfig,
    kind: str,
    threshold: float,
    windows: int = 10_000,
    bank: int = 0,
    seed: int = 0,
    mint_dilution: float = 0.5,
) -> AttackOutcome:
    """Attack one victim row for ``windows`` refresh windows.

    Returns at the first bitflip (the mitigation failed) or after all
    windows (it held). Exposures are drawn in chunks of at most
    :data:`_MAX_CHUNK` windows from the run-local generator (values do not
    depend on the chunking: the draws are element-sequential), and each
    chunk is fed to :meth:`~repro.dram.faults.RowVrdProcess
    .threshold_series`, which ticks the victim's fault clock once per
    window exactly as ``begin_measurement`` + ``current_threshold`` would.
    Memory stays bounded by the chunk size for any ``windows``.
    """
    if windows < 1:
        raise ConfigurationError("need at least one window")
    mapping = module.bank(bank).mapping
    process = module.fault_model.process(bank, mapping.to_physical(victim))
    condition = config.condition(module.timing)
    rng = derive(seed, "attack", module.module_id, bank, victim, kind)

    min_rdt = math.inf
    min_margin = math.inf
    done = 0
    chunk = _MIN_CHUNK
    while done < windows:
        exposures = exposure_windows(
            kind, threshold, rng, min(chunk, windows - done),
            mint_dilution=mint_dilution,
        )
        rdts = process.threshold_series(condition, exposures)
        seen = len(rdts)
        exposures = exposures[:seen]
        # Same elementwise ops as the scalar margin; a min is exact.
        min_rdt = min(min_rdt, float(rdts.min()))
        min_margin = min(min_margin, float(((rdts - exposures) / rdts).min()))
        done += seen
        if exposures[-1] >= rdts[-1]:
            return AttackOutcome(
                kind=kind,
                threshold=threshold,
                windows=done,
                flipped=True,
                first_flip_window=done - 1,
                min_rdt_seen=min_rdt,
                min_exposure_margin=min_margin,
            )
        chunk = min(2 * chunk, _MAX_CHUNK)
    return AttackOutcome(
        kind=kind,
        threshold=threshold,
        windows=windows,
        flipped=False,
        first_flip_window=None,
        min_rdt_seen=min_rdt,
        min_exposure_margin=min_margin,
    )


def profile_and_attack(
    module: DramModule,
    victim: int,
    config: TestConfig,
    kind: str,
    profile_measurements: int,
    margin: float,
    windows: int = 10_000,
    bank: int = 0,
    seed: int = 0,
) -> AttackOutcome:
    """The end-to-end experiment behind the paper's security claim.

    1. Profile the victim's RDT with ``profile_measurements`` measurements
       (the realistic budget; the paper shows even 1000 is not enough).
    2. Configure the mitigation with the observed minimum reduced by
       ``margin``.
    3. Attack for ``windows`` refresh windows and report whether VRD's
       excursions below the profiled minimum defeated the configuration.
    """
    if profile_measurements < 1:
        raise ConfigurationError("need at least one profiling measurement")
    if not 0.0 <= margin < 1.0:
        raise ConfigurationError(f"margin {margin} must be in [0, 1)")
    from repro.core.rdt import FastRdtMeter, HammerSweep

    meter = FastRdtMeter(module, bank)
    guess = meter.guess_rdt(victim, config)
    sweep = HammerSweep.from_guess(guess)
    series = meter.measure_series(
        victim, config, profile_measurements, sweep=sweep, stream="security"
    )
    observed_min = series.min
    threshold = max(1.0, observed_min * (1.0 - margin))
    return attack_escape(
        module, victim, config, kind, threshold,
        windows=windows, bank=bank, seed=seed,
    )
