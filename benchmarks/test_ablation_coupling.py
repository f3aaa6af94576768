"""Ablation 5: vulnerability-severity coupling.

The device model couples spatial vulnerability (low base RDT) with
temporal severity (deeper traps): `depths ~ (mean/base)^coupling`. This
ablation sweeps the coupling exponent and shows its observable effect —
with no coupling the rows the selection protocol picks are no more
temporally variable than average, which contradicts the paper's
foundational rows (rich variation on the *most vulnerable* rows).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.core.rdt import FastRdtMeter
from repro.dram.faults import VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule

GEOMETRY = DramGeometry(n_banks=1, n_rows=512, row_bits_per_chip=1024, n_chips=8)
COUPLINGS = (0.0, 0.5, 1.0)


def test_ablation_vulnerability_coupling(benchmark):
    def run():
        output = []
        for coupling in COUPLINGS:
            params = VrdModelParams(
                mean_rdt=4000.0, vulnerability_coupling=coupling
            )
            module = DramModule(
                f"CPL{coupling:g}", geometry=GEOMETRY, vrd_params=params,
                seed=5,
            )
            meter = FastRdtMeter(module)
            config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
            guesses = sorted(
                (meter.guess_rdt(row, config), row) for row in range(256)
            )
            weakest = [row for _, row in guesses[:25]]
            strongest = [row for _, row in guesses[-25:]]

            def median_cv(rows):
                cvs = []
                for row in rows:
                    series = meter.measure_series(row, config, 500)
                    cvs.append(series.cv)
                return float(np.median(cvs))

            weak_cv = median_cv(weakest)
            strong_cv = median_cv(strongest)
            output.append(
                (coupling, weak_cv, strong_cv,
                 weak_cv / strong_cv if strong_cv > 0 else float("inf"))
            )
        return output

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["coupling", "median CV (weakest rows)",
             "median CV (strongest rows)", "ratio"],
            rows,
            title="Ablation 5 | vulnerability-severity coupling",
        )
    )
    ratios = {coupling: ratio for coupling, _, _, ratio in rows}
    # With coupling, the selected (weakest) rows vary more than strong
    # rows; without it they are statistically alike.
    assert ratios[1.0] > ratios[0.0]
    assert ratios[0.5] > 1.0
    assert 0.5 < ratios[0.0] < 2.0
