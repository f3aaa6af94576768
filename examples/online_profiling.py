#!/usr/bin/env python3
"""Online RDT profiling + a dynamically configured mitigation.

The paper's Sec. 6.5 future-work directions 2 and 3, end to end: an
opportunistic profiler steals ~1% of DRAM time per refresh window, its
minimum-RDT estimate tightens over time, and a guardbanded policy feeds the
live estimate into an adaptive Graphene — compared against a conservative
static configuration on the memory-system simulator.

Run:
    python examples/online_profiling.py
"""

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.memsim import MemorySystem, SystemConfig, standard_mixes
from repro.memsim.metrics import normalized_weighted_speedup
from repro.mitigations import AdaptiveMitigation, Graphene
from repro.profiling import GuardbandedMinPolicy, OnlineRdtProfiler


def main() -> None:
    module = build_module("M1", seed=11)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    rows = list(range(64, 80))

    # Long-run reference minima (what exhaustive offline profiling finds).
    meter = FastRdtMeter(module)
    true_minima = {
        row: meter.measure_series(row, config, 2000).min for row in rows
    }

    profiler = OnlineRdtProfiler(module, rows, config, strategy="focus_min")
    policy = GuardbandedMinPolicy(profiler, margin=0.2, bootstrap=64.0)

    checkpoints = []
    for window in range(1, 1001):
        profiler.idle_tick(budget_ns=640_000.0)  # ~1% of a 64 ms window
        if window in (1, 10, 100, 500, 1000):
            checkpoints.append(
                (
                    window,
                    profiler.measurements_done,
                    profiler.global_min_estimate(),
                    profiler.convergence_excess(true_minima),
                    policy.threshold(),
                )
            )
    print(
        format_table(
            ["windows", "measurements", "global min estimate",
             "mean excess over true min", "policy threshold"],
            checkpoints,
            title="Online profiling at ~1% DRAM bandwidth",
        )
    )

    # Plug the live policy into the memory-system simulation.
    mix = standard_mixes(1)[0]
    sim_config = SystemConfig(window_ns=60_000.0)
    baseline = MemorySystem(mix, sim_config).run()
    static = MemorySystem(mix, sim_config, Graphene(64.0)).run()
    adaptive = MemorySystem(
        mix, sim_config, AdaptiveMitigation(Graphene, policy)
    ).run()
    print()
    print(
        format_table(
            ["configuration", "normalized weighted speedup"],
            [
                ("conservative static Graphene (T=64)",
                 normalized_weighted_speedup(static, baseline)),
                ("adaptive Graphene (live profile)",
                 normalized_weighted_speedup(adaptive, baseline)),
            ],
            title="Mitigation performance",
        )
    )
    print("\nVRD caveat: the profiler's minimum only tightens — it never "
          "certifies that a lower state will not appear tomorrow.")


if __name__ == "__main__":
    main()
