"""Per-module fleet metrics and the composite fleet aggregator.

:func:`module_stats` reduces one module's latent RDT series matrix to a
handful of scalars — the *only* thing a fleet worker keeps per module —
and :class:`FleetAggregator` folds those scalars into the exactly
mergeable primitives of :mod:`repro.fleet.agg`. Both the streaming
runner and the materialize-everything oracle call the same
:func:`module_stats`, so identical series matrices force identical fleet
aggregates (the differential-harness contract).

This module is imported inside worker processes, so it must stay off the
:mod:`repro.core` package (whose ``__init__`` pulls ``scipy.special``,
about 26 MB of RSS and 0.3 s of import time per process on top of numpy —
a quarter of the <100 MB fleet budget). The one formula fleet
metrics need from the ECC layer — the SECDED(72,64) undetectable-escape
tail — is the same closed-form binomial as
:func:`repro.ecc.analysis.outcome_probabilities`, restated here with
:func:`math.comb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Tuple

import numpy as np

from repro.fleet.agg import Log2Histogram, MinMax, Moments, QuantileSketch, Tally
from repro.fleet.population import FleetSpec, ModuleAssignment

__all__ = [
    "ModuleStats",
    "module_stats",
    "secded_escape_probability",
    "FleetAggregator",
]

#: Worst-case per-bit flip probability among vulnerable cells, matching
#: the paper's Table 3 operating point (5 flips per 64 Kib row; the same
#: constant as :data:`repro.ecc.analysis.PAPER_WORST_BER`).
WORST_BER = 5.0 / 65_536.0

#: SECDED(72,64) codeword length.
_SECDED_BITS = 72


def secded_escape_probability(ber: float) -> float:
    """P(>= 3 bit errors in a 72-bit SECDED word) — the undetectable
    escape tail, closed form (binomial complement of k in {0, 1, 2})."""
    if ber <= 0.0:
        return 0.0
    ber = min(ber, 1.0)
    survive = 0.0
    for k in range(3):
        survive += (
            comb(_SECDED_BITS, k)
            * ber ** k
            * (1.0 - ber) ** (_SECDED_BITS - k)
        )
    return max(0.0, 1.0 - survive)


@dataclass(frozen=True)
class ModuleStats:
    """One fleet member reduced to scalars (everything the fleet keeps)."""

    index: int
    device: str
    region: str
    workload: str
    min_rdt: float
    worst_dip: float
    guardband_failed: bool
    flip_events: int
    vulnerable_fraction: float
    ecc_escape: float
    mitigation_overhead: float


def module_stats(
    assignment: ModuleAssignment, spec: FleetSpec, series: np.ndarray
) -> ModuleStats:
    """Reduce one module's ``(rows, measurements)`` latent RDT matrix.

    The guardband model is the paper's one-shot profiling deployment:
    each row is profiled once (measurement 0) and protected at
    ``baseline * (1 - margin)``; later measurements dipping below that
    threshold are temporal-variation escapes. ``worst_dip`` is the
    margin that *would* have covered the row's deepest revisit dip —
    the fleet quantiles of it are exactly the guardband-sizing curve.
    """
    baselines = series[:, 0]
    revisits = series[:, 1:]
    thresholds = baselines * (1.0 - spec.guardband_margin)
    below = revisits < thresholds[:, None]
    dips = 1.0 - revisits.min(axis=1) / baselines

    vulnerable = float(
        (series < assignment.activations_per_window).mean()
    )
    min_rdt = float(series.min())
    guardbanded = float(thresholds.min())
    overhead = assignment.activations_per_window / guardbanded

    return ModuleStats(
        index=assignment.index,
        device=assignment.device,
        region=assignment.region,
        workload=assignment.workload,
        min_rdt=min_rdt,
        worst_dip=float(max(0.0, dips.max())),
        guardband_failed=bool(below.any()),
        flip_events=int(below.sum()),
        vulnerable_fraction=vulnerable,
        ecc_escape=secded_escape_probability(WORST_BER * vulnerable),
        mitigation_overhead=float(overhead),
    )


class _GroupCounts:
    """Per-group (region/workload) module and failure tallies."""

    __slots__ = ("modules", "failures")

    def __init__(self, modules: int = 0, failures: int = 0) -> None:
        self.modules = Tally(modules)
        self.failures = Tally(failures)


class FleetAggregator:
    """The whole fleet, folded: O(1) state with an exact merge.

    ``update`` is consistent with ``merge`` against a singleton
    aggregator, and ``merge`` is associative and commutative (inherited
    from the primitives), so any sharding of the population and any
    completion order produce bit-identical :meth:`finalize` output.
    """

    PAYLOAD_FORMAT = 1

    def __init__(self) -> None:
        self.modules = Tally()
        self.guardband_failures = Tally()
        self.flip_events = Tally()
        self.min_rdt = Moments()
        self.min_rdt_range = MinMax()
        self.min_rdt_histogram = Log2Histogram()
        self.worst_dip = Moments()
        self.worst_dip_range = MinMax()
        self.worst_dip_sketch = QuantileSketch()
        self.ecc_escape = Moments()
        self.ecc_escape_range = MinMax()
        self.overhead = Moments()
        self.overhead_range = MinMax()
        self.overhead_sketch = QuantileSketch()
        self.regions: Dict[str, _GroupCounts] = {}
        self.workloads: Dict[str, _GroupCounts] = {}

    # -- folding -------------------------------------------------------

    @staticmethod
    def _group(groups: Dict[str, _GroupCounts], name: str) -> _GroupCounts:
        group = groups.get(name)
        if group is None:
            group = groups[name] = _GroupCounts()
        return group

    def update(self, stats: ModuleStats) -> None:
        self.modules.update()
        if stats.guardband_failed:
            self.guardband_failures.update()
        self.flip_events.update(stats.flip_events)
        self.min_rdt.update(stats.min_rdt)
        self.min_rdt_range.update(stats.min_rdt)
        self.min_rdt_histogram.update(stats.min_rdt)
        self.worst_dip.update(stats.worst_dip)
        self.worst_dip_range.update(stats.worst_dip)
        self.worst_dip_sketch.update(stats.worst_dip)
        self.ecc_escape.update(stats.ecc_escape)
        self.ecc_escape_range.update(stats.ecc_escape)
        self.overhead.update(stats.mitigation_overhead)
        self.overhead_range.update(stats.mitigation_overhead)
        self.overhead_sketch.update(stats.mitigation_overhead)
        for groups, name in (
            (self.regions, stats.region), (self.workloads, stats.workload)
        ):
            group = self._group(groups, name)
            group.modules.update()
            if stats.guardband_failed:
                group.failures.update()

    def merge(self, other: "FleetAggregator") -> None:
        self.modules.merge(other.modules)
        self.guardband_failures.merge(other.guardband_failures)
        self.flip_events.merge(other.flip_events)
        self.min_rdt.merge(other.min_rdt)
        self.min_rdt_range.merge(other.min_rdt_range)
        self.min_rdt_histogram.merge(other.min_rdt_histogram)
        self.worst_dip.merge(other.worst_dip)
        self.worst_dip_range.merge(other.worst_dip_range)
        self.worst_dip_sketch.merge(other.worst_dip_sketch)
        self.ecc_escape.merge(other.ecc_escape)
        self.ecc_escape_range.merge(other.ecc_escape_range)
        self.overhead.merge(other.overhead)
        self.overhead_range.merge(other.overhead_range)
        self.overhead_sketch.merge(other.overhead_sketch)
        for mine, theirs in (
            (self.regions, other.regions), (self.workloads, other.workloads)
        ):
            for name, group in theirs.items():
                target = self._group(mine, name)
                target.modules.merge(group.modules)
                target.failures.merge(group.failures)

    # -- output --------------------------------------------------------

    @staticmethod
    def _groups_summary(groups: Dict[str, _GroupCounts]) -> dict:
        return {
            name: {
                "modules": group.modules.count,
                "guardband_failures": group.failures.count,
                "failure_rate": (
                    group.failures.count / group.modules.count
                    if group.modules.count else 0.0
                ),
            }
            for name, group in sorted(groups.items())
        }

    def finalize(self) -> dict:
        """Plain-float/int fleet summary — the runner's scientific output.

        Bit-deterministic: every number is either an integer, a lattice
        value, a single rounding of an exact rational, or a pure function
        of integer bucket counts.
        """
        modules = self.modules.count
        return {
            "modules": modules,
            "guardband_failures": self.guardband_failures.count,
            "guardband_failure_rate": (
                self.guardband_failures.count / modules if modules else 0.0
            ),
            "flip_events": self.flip_events.count,
            "min_rdt": {
                **self.min_rdt.finalize(),
                **self.min_rdt_range.to_payload(),
                "histogram": self.min_rdt_histogram.finalize(),
            },
            "worst_dip": {
                **self.worst_dip.finalize(),
                **self.worst_dip_range.to_payload(),
                "p50": self.worst_dip_sketch.quantile(0.50),
                "p99": self.worst_dip_sketch.quantile(0.99),
                "p999": self.worst_dip_sketch.quantile(0.999),
            },
            "ecc_escape": {
                **self.ecc_escape.finalize(),
                **self.ecc_escape_range.to_payload(),
            },
            "mitigation_overhead": {
                **self.overhead.finalize(),
                **self.overhead_range.to_payload(),
                "p50": self.overhead_sketch.quantile(0.50),
                "p99": self.overhead_sketch.quantile(0.99),
                "p999": self.overhead_sketch.quantile(0.999),
            },
            "regions": self._groups_summary(self.regions),
            "workloads": self._groups_summary(self.workloads),
        }

    def margin_failure_rate(self, margin: float) -> float:
        """Fleet fraction whose worst revisit dip exceeds ``margin`` — the
        failure probability of deploying that guardband fleet-wide
        (conservative at bucket granularity; exact in the sample)."""
        fraction = self.worst_dip_sketch.tail_fraction(margin)
        return 0.0 if fraction != fraction else fraction

    # -- checkpoint serialization --------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": self.PAYLOAD_FORMAT,
            "modules": self.modules.to_payload(),
            "guardband_failures": self.guardband_failures.to_payload(),
            "flip_events": self.flip_events.to_payload(),
            "min_rdt": self.min_rdt.to_payload(),
            "min_rdt_range": self.min_rdt_range.to_payload(),
            "min_rdt_histogram": self.min_rdt_histogram.to_payload(),
            "worst_dip": self.worst_dip.to_payload(),
            "worst_dip_range": self.worst_dip_range.to_payload(),
            "worst_dip_sketch": self.worst_dip_sketch.to_payload(),
            "ecc_escape": self.ecc_escape.to_payload(),
            "ecc_escape_range": self.ecc_escape_range.to_payload(),
            "overhead": self.overhead.to_payload(),
            "overhead_range": self.overhead_range.to_payload(),
            "overhead_sketch": self.overhead_sketch.to_payload(),
            "regions": {
                name: [group.modules.count, group.failures.count]
                for name, group in sorted(self.regions.items())
            },
            "workloads": {
                name: [group.modules.count, group.failures.count]
                for name, group in sorted(self.workloads.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetAggregator":
        aggregator = cls()
        aggregator.modules = Tally.from_payload(payload["modules"])
        aggregator.guardband_failures = Tally.from_payload(
            payload["guardband_failures"]
        )
        aggregator.flip_events = Tally.from_payload(payload["flip_events"])
        aggregator.min_rdt = Moments.from_payload(payload["min_rdt"])
        aggregator.min_rdt_range = MinMax.from_payload(
            payload["min_rdt_range"]
        )
        aggregator.min_rdt_histogram = Log2Histogram.from_payload(
            payload["min_rdt_histogram"]
        )
        aggregator.worst_dip = Moments.from_payload(payload["worst_dip"])
        aggregator.worst_dip_range = MinMax.from_payload(
            payload["worst_dip_range"]
        )
        aggregator.worst_dip_sketch = QuantileSketch.from_payload(
            payload["worst_dip_sketch"]
        )
        aggregator.ecc_escape = Moments.from_payload(payload["ecc_escape"])
        aggregator.ecc_escape_range = MinMax.from_payload(
            payload["ecc_escape_range"]
        )
        aggregator.overhead = Moments.from_payload(payload["overhead"])
        aggregator.overhead_range = MinMax.from_payload(
            payload["overhead_range"]
        )
        aggregator.overhead_sketch = QuantileSketch.from_payload(
            payload["overhead_sketch"]
        )
        for field, groups in (
            ("regions", aggregator.regions),
            ("workloads", aggregator.workloads),
        ):
            for name, (modules, failures) in payload[field].items():
                groups[name] = _GroupCounts(int(modules), int(failures))
        return aggregator
