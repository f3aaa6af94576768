"""Memory-system performance simulator (paper Sec. 6.3, Fig. 14).

A compact DDR5 memory-system model in the spirit of Ramulator 2.0's use in
the paper: four cores issue memory requests from synthetic
memory-intensity-parameterized workloads into an FR-FCFS controller over
banked DRAM with JEDEC timings. Read-disturbance mitigations hook row
activations and inject preventive refreshes, RFMs, or back-offs; the
benchmark reports weighted speedup normalized to a mitigation-free
baseline, reproducing Fig. 14's overhead-vs-guardband curves.
"""

from repro.memsim.trace import (
    HIGH_MPKI_WORKLOADS,
    SyntheticWorkload,
    WorkloadMix,
    standard_mixes,
)
from repro.memsim.system import (
    CoreStream,
    MemorySystem,
    SimulationResult,
    SystemConfig,
)
from repro.memsim.metrics import normalized_weighted_speedup
from repro.memsim.sweep import SweepResult, SweepSpec, run_sweep, sweep_key

__all__ = [
    "SyntheticWorkload",
    "WorkloadMix",
    "HIGH_MPKI_WORKLOADS",
    "standard_mixes",
    "MemorySystem",
    "SystemConfig",
    "SimulationResult",
    "normalized_weighted_speedup",
    "CoreStream",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "sweep_key",
]
