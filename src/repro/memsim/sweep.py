"""Cached execution of the Fig. 14 mitigation-overhead sweep.

The Fig. 14 study is a grid — mitigation x RDT x guardband, geomean'd over
four-core workload mixes — of independent simulations:

* **Shared streams per mix.** Every cell runs
  :meth:`~repro.memsim.system.MemorySystem.run` over one set of per-core
  address streams *shared by every run of a mix* — the stream depends
  only on the (workload, core, geometry, seed) recipe, never on the
  mitigation. :func:`run_sweep` builds the mixes, streams and per-mix
  baselines once per call and serves every cell from them.
* **On-disk cache.** Given a :class:`~repro.store.db.ResultStore` (the
  one the campaign cache uses: ``$VRD_STORE_PATH``, default
  ``.vrd-cache/results.sqlite``), :func:`run_sweep` stores finished sweeps
  under :func:`sweep_key`, which hashes the full recipe — grid, mix
  count, window, geometry and seed — so any parameter change is a clean
  miss, and corrupt entries degrade to misses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.memsim.metrics import geometric_mean, normalized_weighted_speedup
from repro.memsim.system import CoreStream, MemorySystem, SystemConfig
from repro.memsim.trace import WorkloadMix, standard_mixes
from repro.mitigations import apply_guardband, build_mitigation
from repro.store.db import (
    KIND_SWEEP,
    ResultStore,
    encode_payload,
    payload_checksum,
)

#: The Fig. 14 grid (paper Sec. 6.3): four mitigations, a near-future and a
#: far-future threshold, 0-50% guardbands.
FIG14_MITIGATIONS: Tuple[str, ...] = ("Graphene", "PRAC", "PARA", "MINT")
FIG14_RDTS: Tuple[float, ...] = (1024.0, 128.0)
FIG14_MARGINS: Tuple[float, ...] = (0.0, 0.10, 0.25, 0.50)

#: One sweep cell: (rdt, margin, mitigation name).
Cell = Tuple[float, float, str]


@dataclass(frozen=True)
class SweepSpec:
    """Complete recipe for one Fig. 14 sweep (hashable and picklable)."""

    mitigations: Tuple[str, ...] = FIG14_MITIGATIONS
    rdts: Tuple[float, ...] = FIG14_RDTS
    margins: Tuple[float, ...] = FIG14_MARGINS
    n_mixes: int = 5
    window_ns: float = 60_000.0
    n_banks: int = 8
    n_rows: int = 1 << 14
    seed: int = 11
    #: Fixed tag, not a parameter: it keeps the recipe's stored shape, so
    #: payloads and result digests recorded by earlier versions still
    #: compare equal.
    engine: str = field(default="fast", init=False)

    def __post_init__(self) -> None:
        if not self.mitigations or not self.rdts or not self.margins:
            raise ConfigurationError("sweep grid must be non-empty")
        if self.n_mixes < 1:
            raise ConfigurationError("sweep needs at least one mix")
        # Validate every (rdt, margin) pair and the system parameters
        # eagerly so a bad grid fails before any simulation runs.
        for rdt in self.rdts:
            for margin in self.margins:
                apply_guardband(rdt, margin)
        self.config()

    def config(self) -> SystemConfig:
        return SystemConfig(
            n_banks=self.n_banks,
            n_rows=self.n_rows,
            window_ns=self.window_ns,
            seed=self.seed,
        )

    def mixes(self) -> List[WorkloadMix]:
        return standard_mixes(self.n_mixes)

    def cells(self) -> List[Cell]:
        """Grid cells in deterministic (rdt, margin, mitigation) order."""
        return [
            (float(rdt), float(margin), name)
            for rdt in self.rdts
            for margin in self.margins
            for name in self.mitigations
        ]


@dataclass
class SweepResult:
    """Per-mix speedups for every cell, plus geomean accessors."""

    spec: SweepSpec
    #: cell -> {mix name -> normalized weighted speedup}
    per_mix: Dict[Cell, Dict[str, float]] = field(default_factory=dict)

    def speedup(self, rdt: float, margin: float, name: str) -> float:
        """Geomean speedup across mixes for one cell (Fig. 14's y-value)."""
        cell = (float(rdt), float(margin), name)
        return geometric_mean(list(self.per_mix[cell].values()))

    def table(self) -> Dict[Cell, float]:
        """All cells' geomean speedups, keyed like the benchmark table."""
        return {
            cell: geometric_mean(list(mix_speedups.values()))
            for cell, mix_speedups in self.per_mix.items()
        }

    def to_payload(self) -> dict:
        return {
            "format": 1,
            "kind": "fig14-sweep",
            "spec": asdict(self.spec),
            "cells": [
                {
                    "rdt": rdt,
                    "margin": margin,
                    "mitigation": name,
                    "per_mix": mix_speedups,
                }
                for (rdt, margin, name), mix_speedups in self.per_mix.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepResult":
        if payload.get("kind") != "fig14-sweep":
            raise ValueError("not a fig14-sweep payload")
        spec_fields = dict(payload["spec"])
        spec_fields.pop("engine")
        for key in ("mitigations", "rdts", "margins"):
            spec_fields[key] = tuple(spec_fields[key])
        result = cls(spec=SweepSpec(**spec_fields))
        for record in payload["cells"]:
            cell = (
                float(record["rdt"]),
                float(record["margin"]),
                record["mitigation"],
            )
            result.per_mix[cell] = {
                mix: float(value)
                for mix, value in record["per_mix"].items()
            }
        return result


def sweep_key(spec: SweepSpec) -> str:
    """Hex digest of the sweep recipe: its result's key in the store."""
    return payload_checksum(encode_payload(
        {"format": 2, "kind": "fig14-sweep", "spec": asdict(spec)}
    ))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def _sweep_cells(
    spec: SweepSpec, config: SystemConfig, cells: Sequence[Cell]
) -> Dict[Cell, Dict[str, float]]:
    """Every cell's per-mix speedups under ``config``. Mixes, their shared
    streams and baselines are built once and serve every cell."""
    mixes = spec.mixes()
    streams: Dict[str, List[CoreStream]] = {}
    baselines = {}
    for mix in mixes:
        baseline_system = MemorySystem(mix, config)
        streams[mix.name] = [
            CoreStream(source) for source in baseline_system._generators
        ]
        baselines[mix.name] = baseline_system.run(streams[mix.name])
    per_mix: Dict[Cell, Dict[str, float]] = {}
    for rdt, margin, name in cells:
        threshold = apply_guardband(rdt, margin)
        mix_speedups: Dict[str, float] = {}
        for mix in mixes:
            mitigation = build_mitigation(name, threshold)
            system = MemorySystem(mix, config, mitigation)
            result = system.run(streams[mix.name])
            mix_speedups[mix.name] = normalized_weighted_speedup(
                result, baselines[mix.name]
            )
        per_mix[(rdt, margin, name)] = mix_speedups
    return per_mix


def run_sweep(
    spec: Optional[SweepSpec] = None,
    n_jobs: Optional[int] = None,
    cache: Optional[ResultStore] = None,
    check_timing: bool = False,
) -> SweepResult:
    """Run (or reload) one Fig. 14 sweep.

    Args:
        spec: Grid recipe; defaults to the paper's Fig. 14 grid over 5
            mixes.
        n_jobs: ``None`` or ``1``; the sweep runs in one process and any
            other value raises :class:`~repro.errors.ConfigurationError`.
            Kept only because the benchmark harness (``bench/``) still
            passes ``n_jobs=1``; ROADMAP item 5 removes it.
        cache: Optional :class:`~repro.store.db.ResultStore`; a hit under
            :func:`sweep_key` skips simulation entirely.
        check_timing: Run every simulation with
            :attr:`~repro.memsim.system.SystemConfig.check_timing`, which
            feeds each REF, PRE and ACT to a timing checker. A checked run
            never reads the store, so every simulated command reaches the
            checker; it still saves its result under the same key.
    """
    if n_jobs not in (None, 1):
        raise ConfigurationError(
            f"the sweep runs in one process; n_jobs must be None or 1, "
            f"got {n_jobs!r}"
        )
    spec = spec or SweepSpec()
    config = replace(spec.config(), check_timing=check_timing)
    recorder = obs.active()

    with recorder.span("sweep.run"):
        if cache is not None and not check_timing:
            cached = cache.load(
                sweep_key(spec), KIND_SWEEP, SweepResult.from_payload
            )
            if cached is not None:
                return cached

        cells = spec.cells()
        recorder.counter_add("sweep.cells", len(cells))
        result = SweepResult(
            spec=spec, per_mix=_sweep_cells(spec, config, cells)
        )

        if cache is not None:
            cache.save(sweep_key(spec), KIND_SWEEP, result.to_payload())
        return result
