"""Extension (paper Sec. 6.5, direction 3): dynamically configured
mitigation cooperating with online profiling.

Compares three Graphene configurations on the memory-system simulator:

* a *conservative static* threshold (the worst case a designer must assume
  without per-device profiling);
* a *profiled static* threshold (the device's offline minimum with a
  guardband);
* the *adaptive* wrapper following a live guardbanded-minimum policy.

The adaptive configuration recovers (nearly all of) the profiled-static
performance without requiring the offline profile up front.
"""

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.memsim import MemorySystem, SystemConfig, standard_mixes
from repro.memsim.metrics import geometric_mean, normalized_weighted_speedup
from repro.mitigations import Graphene
from repro.mitigations.adaptive import AdaptiveMitigation
from repro.profiling import GuardbandedMinPolicy, OnlineRdtProfiler

CONSERVATIVE_THRESHOLD = 64.0


def test_ext_adaptive_mitigation(benchmark):
    def run():
        module = build_module("M1", seed=11)
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)

        # Offline reference: the device's long-run minimum with a 20% band.
        meter = FastRdtMeter(module)
        rows = list(range(64, 80))
        offline_min = min(
            meter.measure_series(row, config, 1000).min for row in rows
        )
        profiled_threshold = offline_min * 0.8

        # Online profiler warmed by a brief profiling phase.
        profiler = OnlineRdtProfiler(module, rows, config)
        for _ in range(50):
            profiler.idle_tick(640_000.0)
        policy = GuardbandedMinPolicy(
            profiler, margin=0.2, bootstrap=CONSERVATIVE_THRESHOLD
        )

        mixes = standard_mixes(4)
        sim_config = SystemConfig(window_ns=60_000.0)
        baselines = {
            mix.name: MemorySystem(mix, sim_config).run() for mix in mixes
        }

        def speedup_for(factory):
            values = []
            for mix in mixes:
                run_result = MemorySystem(mix, sim_config, factory()).run()
                values.append(
                    normalized_weighted_speedup(
                        run_result, baselines[mix.name]
                    )
                )
            return geometric_mean(values)

        return {
            "conservative static (T=64)": speedup_for(
                lambda: Graphene(CONSERVATIVE_THRESHOLD)
            ),
            "profiled static": speedup_for(
                lambda: Graphene(profiled_threshold)
            ),
            "adaptive (online profile)": speedup_for(
                lambda: AdaptiveMitigation(Graphene, policy)
            ),
        }, profiled_threshold, policy.threshold()

    speedups, profiled_threshold, live_threshold = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    print()
    print(
        format_table(
            ["configuration", "normalized weighted speedup"],
            list(speedups.items()),
            title="Extension | adaptive threshold configuration (Graphene); "
                  f"offline threshold {profiled_threshold:.0f}, live "
                  f"threshold {live_threshold:.0f}",
        )
    )
    # The profiled threshold outperforms the conservative worst case, and
    # the adaptive configuration matches the profiled one closely.
    assert speedups["profiled static"] >= speedups["conservative static (T=64)"]
    assert (
        speedups["adaptive (online profile)"]
        >= speedups["profiled static"] - 0.02
    )
