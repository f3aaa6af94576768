#!/usr/bin/env python3
"""Quickstart: observe variable read disturbance on a simulated chip.

Builds the catalog module M1 (a Micron 16Gb-F DDR4 device), settles the
testbed's temperature per the paper's methodology (Sec. 3.1), runs
Algorithm 1 through the full DRAM-Bender trial path for a handful of
measurements, then uses the fast measurement path for a 1000-measurement
series and prints the VRD statistics the paper's findings are built on.

Run:
    python examples/quickstart.py
"""

from repro.bender import DramBender, PidTemperatureController
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.core.rdt import HammerSweep, RdtMeter, find_victim
from repro.core import stats


def main() -> None:
    # 1. A simulated catalog device; same (module, seed) => same chip.
    module = build_module("M1", seed=7)
    print(f"device: {module.module_id} ({module.kind}, "
          f"{module.geometry.n_banks} banks x {module.geometry.n_rows} rows)")

    # 2. Testbed preparation: settle the heater at 50 C. The simulated
    #    device has no refresh, TRR or on-die ECC to disable: Sec. 3.1
    #    switches all three off on real chips before testing.
    bender = DramBender(module, controller=PidTemperatureController())
    settled = bender.set_temperature(50.0)
    print(f"temperature settled at {settled:.2f} C")

    # 3. Algorithm 1: find a vulnerable victim row and guess its RDT.
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    meter = RdtMeter(bender)
    guess, victim = find_victim(meter, rows=range(32), config=config)
    print(f"victim row {victim}, guessed RDT {guess:.0f}")

    # 4. A few measurements through the full trial path (initialize the
    #    Table 2 neighborhood, hammer double-sided, read and compare).
    sweep = HammerSweep.from_guess(guess)
    series = meter.measure_series(victim, config, 15, sweep=sweep)
    print(f"15 Bender-path measurements: {sorted(set(series.valid))}")
    per_trial_ms = bender.trial_time_ns(int(guess), config.t_agg_on_ns) / 1e6
    print(f"total testbed time: {bender.elapsed_ns / 1e6:.1f} ms; each "
          f"trial ~{per_trial_ms:.2f} ms, comfortably inside the "
          f"{module.timing.tREFW / 1e6:.0f} ms refresh window (Sec. 3.1)")

    # 5. A 1000-measurement series on the fast path: the same stochastic
    #    process without per-trial row rewrites.
    fast = FastRdtMeter(module)
    long_series = fast.measure_series(victim, config, 1000, sweep=sweep)
    print()
    print("1000 measurements:", long_series.describe())
    print(f"  the minimum appears {long_series.min_count}x, first at "
          f"measurement {long_series.first_min_index()}")
    print(f"  max/min ratio: {long_series.max_to_min_ratio:.3f}")
    print(f"  states held for one measurement only: "
          f"{stats.fraction_single_measurement_changes(long_series.valid):.1%}")
    print()
    print("This is variable read disturbance: one (or few) measurements "
          "cannot identify the minimum RDT a mitigation must be "
          "configured with.")


if __name__ == "__main__":
    main()
