#!/usr/bin/env python3
"""Does an RDT-configured mitigation hold against VRD? (extension)

The paper's security implication, executed: profile a victim row with a
small measurement budget, configure each mitigation with the observed
minimum (optionally guardbanded), then attack for thousands of refresh
windows while the row's instantaneous RDT fluctuates.

Run:
    python examples/attack_vs_mitigation.py
"""

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, TestConfig
from repro.security import profile_and_attack

VICTIMS = range(80, 92)


def main() -> None:
    module = build_module("M1", seed=21)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)

    rows = []
    for kind in ("graphene", "prac", "para", "mint"):
        for n, margin in ((5, 0.0), (5, 0.10), (1000, 0.10)):
            flips = 0
            first = None
            for victim in VICTIMS:
                outcome = profile_and_attack(
                    module, victim, config, kind,
                    profile_measurements=n, margin=margin,
                    windows=2000, seed=victim,
                )
                if outcome.flipped:
                    flips += 1
                    if first is None:
                        first = outcome.first_flip_window
            rows.append(
                (kind, n, f"{int(margin * 100)}%",
                 f"{flips}/{len(list(VICTIMS))}",
                 first if first is not None else "-")
            )

    print(
        format_table(
            ["mitigation", "profile N", "guardband", "victims flipped",
             "earliest flip (window)"],
            rows,
            title="Attack escape under VRD (2000 refresh windows per victim)",
        )
    )
    print("\nReadings:")
    print(" * PRAC with no guardband can round its power-of-two trigger")
    print("   above the profiled minimum — the paper's >10% guardband")
    print("   recommendation repairs it.")
    print(" * Graphene/PARA carry intrinsic headroom (T/2 trigger, tuned")
    print("   refresh probability) and hold.")
    print(" * A single-entry sampling tracker (MINT-style) admits a")
    print("   dilution attack no amount of profiling fixes.")


if __name__ == "__main__":
    main()
