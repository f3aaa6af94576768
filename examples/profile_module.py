#!/usr/bin/env python3
"""Characterize a module's VRD profile (the paper's Sec. 5 protocol).

Selects vulnerable rows the way the paper does (most vulnerable rows of
three blocks), measures 1000-point RDT series under all four data patterns,
and prints the module's VRD profile: the CV S-curve, the probability of
finding the minimum RDT, and the expected normalized minimum for several
measurement budgets.

Run:
    python examples/profile_module.py [MODULE_ID]   # default: S0
"""

import sys

import numpy as np

from repro.analysis.figures import module_campaign
from repro.analysis.tables import format_table


def main() -> None:
    module_id = sys.argv[1] if len(sys.argv) > 1 else "S0"
    print(f"profiling {module_id} (4 patterns x 1000 measurements per row)...")
    result = module_campaign(module_id, rows_per_block=5, n_measurements=1000)

    # CV S-curve (Fig. 7a).
    s_curve = result.cv_s_curve()
    print()
    print(
        format_table(
            ["percentile", "max CV across patterns"],
            [(f"P{p}", float(np.percentile(s_curve, p)))
             for p in (0, 25, 50, 75, 100)],
            title=f"{module_id} | CV S-curve across {s_curve.size} rows",
        )
    )
    print(f"rows varying under every pattern: "
          f"{result.fraction_always_varying():.1%}")

    # Minimum-RDT identification (Fig. 8).
    rows = []
    for n, (probs, enorm) in result.min_rdt_distributions().items():
        rows.append(
            (n, float(np.median(probs)), float(np.median(enorm)),
             float(enorm.max()))
        )
    print()
    print(
        format_table(
            ["N measurements", "median P(find min)", "median E[min]/min",
             "worst E[min]/min"],
            rows,
            title=f"{module_id} | how many measurements does the minimum "
                  "RDT take?",
        )
    )

    worst = max(result.observations, key=lambda o: o.series.max_to_min_ratio)
    print()
    print(f"worst row: {worst.row} under {worst.config.label()}: "
          f"min={worst.series.min:.0f} max={worst.series.max:.0f} "
          f"({worst.series.max_to_min_ratio:.2f}x)")


if __name__ == "__main__":
    main()
