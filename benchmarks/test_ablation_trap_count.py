"""Ablation 1 (DESIGN.md): trap-count prior.

Few deep traps produce multi-modal series that fail the Sec. 4.1 normality
interpretation; many shallow traps produce the near-normal bulk the paper
observes. This bench sweeps the prior and reports bulk-normality pass rate
and per-measurement switching fraction (Finding 3's statistic).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core import stats
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.core.rdt import FastRdtMeter
from repro.dram.faults import VrdModelParams
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule

GEOMETRY = DramGeometry(n_banks=1, n_rows=256, row_bits_per_chip=1024, n_chips=8)

#: (label, trap count, per-trap depth scale) at constant total variance.
PRIORS = (
    ("1 deep trap", 1.0, 0.020),
    ("3 medium traps", 3.0, 0.0115),
    ("8 shallow traps", 8.0, 0.0071),
    ("16 micro traps", 16.0, 0.0050),
)


def test_ablation_trap_count_prior(benchmark):
    def run():
        output = []
        for label, count, scale in PRIORS:
            params = VrdModelParams(
                mean_rdt=4000.0,
                trap_count_mean=count,
                depth_scale=scale,
                big_trap_prob=0.0,
                rare_trap_prob=0.0,
                sigma_resid=0.004,
            )
            module = DramModule(
                f"ABL-{count:g}", geometry=GEOMETRY, vrd_params=params, seed=5
            )
            meter = FastRdtMeter(module)
            config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
            passes = 0
            testable = 0
            switch_fractions = []
            for row in range(40):
                series = meter.measure_series(row, config, 2000)
                switch_fractions.append(
                    stats.fraction_single_measurement_changes(series.valid)
                )
                mapping = module.bank(0).mapping
                process = module.fault_model.process(0, mapping.to_physical(row))
                latent = process.latent_series(
                    config.condition(module.timing), 2000
                )
                try:
                    _, p = stats.chi_square_normal_fit(latent, trim_sigmas=4.0)
                except Exception:
                    continue
                testable += 1
                if p > 0.05:
                    passes += 1
            output.append(
                (
                    label,
                    passes / max(testable, 1),
                    float(np.mean(switch_fractions)),
                )
            )
        return output

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["trap prior", "bulk normality pass rate",
             "single-measurement switch fraction"],
            rows,
            title="Ablation 1 | trap-count prior at constant total variance",
        )
    )
    # More, shallower traps -> more normal-looking bulk.
    pass_rates = [row[1] for row in rows]
    assert pass_rates[-1] >= pass_rates[0]
    assert pass_rates[-1] > 0.5
