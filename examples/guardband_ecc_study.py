#!/usr/bin/env python3
"""Guardbands + ECC against VRD-induced bitflips (the paper's Sec. 6.4).

For a set of vulnerable rows: measure the RDT a few times, then hammer
thousands of times at safety margins below the observed minimum and count
which unique cells still flip. Feed the worst observed bit error rate into
the analytic ECC model (Table 3) and double-check one configuration against
the bit-exact SECDED codec.

Run:
    python examples/guardband_ecc_study.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, TestConfig
from repro.core.campaign import select_vulnerable_rows
from repro.core.guardband import bit_error_rate, margin_bitflip_experiment
from repro.ecc import Secded72, monte_carlo_outcomes, table3


def main() -> None:
    module = build_module("M1", seed=3)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)

    rows = select_vulnerable_rows(
        module, config, block_rows=128, per_block=4, probe_repeats=5
    )
    print(f"testing {len(rows)} vulnerable rows of {module.module_id} "
          "at margins below their observed minimum RDT...")

    outcomes = []
    for row in rows:
        outcomes.extend(
            margin_bitflip_experiment(
                module, row, config,
                margins=(0.10, 0.30, 0.50),
                baseline_measurements=5,
                trials=3000,
            )
        )

    table_rows = []
    for margin in (0.10, 0.30, 0.50):
        at_margin = [o for o in outcomes if o.margin == margin]
        flips = [o.n_unique_flips for o in at_margin]
        trials_with_flips = sum(o.flipping_trials for o in at_margin)
        table_rows.append(
            (f"{int(margin * 100)}%", max(flips), float(np.mean(flips)),
             trials_with_flips)
        )
    print()
    print(
        format_table(
            ["safety margin", "max unique flips", "mean unique flips",
             "flipping trials"],
            table_rows,
            title="Fig. 16-style | bitflips below the observed minimum RDT",
        )
    )

    at_ten = [o for o in outcomes if o.margin == 0.10]
    ber = bit_error_rate(at_ten, module.geometry.row_bits)
    worst = max(at_ten, key=lambda o: o.n_unique_flips)
    print(f"\nworst case: {worst.n_unique_flips} unique flips in row "
          f"{worst.row}, spread over "
          f"{len(worst.flips_by_chip(module.geometry))} chips "
          f"(max {worst.max_flips_per_codeword()} per 64-bit codeword)")
    print(f"worst bit error rate: {ber:.2e} (paper: 7.6e-5)")

    print()
    print(
        format_table(
            ["scheme", "uncorrectable", "undetectable",
             "detectable uncorrectable"],
            [
                tuple(probs.as_row().values())
                for probs in table3(ber).values()
            ],
            title=f"Table 3 | ECC outcome probabilities at BER {ber:.2e}",
        )
    )

    outcome = monte_carlo_outcomes(
        Secded72(), ber, trials=50_000, rng=np.random.default_rng(0)
    )
    print(f"\nSECDED codec Monte Carlo at this BER: "
          f"uncorrectable {outcome.uncorrectable:.2e}, "
          f"silent {outcome.undetectable:.2e}")
    print("Conclusion (paper Sec. 6.4): a >10% guardband plus SECDED or "
          "Chipkill-like ECC could mask VRD-induced flips, but not safely.")


if __name__ == "__main__":
    main()
