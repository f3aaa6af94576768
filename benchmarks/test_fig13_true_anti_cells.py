"""Fig. 13: CV across 1000 measurements for true-cell vs anti-cell rows of
module M0 (Finding 17: no significant difference).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import FastRdtMeter, TestConfig
from repro.core.patterns import ALL_PATTERNS
from benchmarks.conftest import N_MEASUREMENTS


def test_fig13_true_vs_anti_cells(benchmark):
    def run():
        module = build_module("M0")
        layout = module.cell_layout
        meter = FastRdtMeter(module)
        # 50 rows straddling a polarity block boundary (the measured M0
        # layout alternates polarity every 512 rows).
        rows = list(range(487, 537))
        true_cv, anti_cv = [], []
        for pattern in ALL_PATTERNS:
            config = TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)
            for row in rows:
                series = meter.measure_series(row, config, N_MEASUREMENTS)
                if series.n_failed_sweeps == len(series):
                    continue
                bucket = (
                    true_cv if layout.row_is_true_cell(row) else anti_cv
                )
                bucket.append(series.cv)
        return np.array(true_cv), np.array(anti_cv)

    true_cv, anti_cv = benchmark.pedantic(run, rounds=1, iterations=1)

    def summary(values):
        return (
            values.size,
            float(np.percentile(values, 25)),
            float(np.median(values)),
            float(np.percentile(values, 75)),
            float(values.max()),
        )

    print()
    print(
        format_table(
            ["cell type", "series", "q1 CV", "median CV", "q3 CV", "max CV"],
            [
                ("true-cell rows", *summary(true_cv)),
                ("anti-cell rows", *summary(anti_cv)),
            ],
            title="Fig. 13 | CV of true- vs anti-cell rows (module M0)",
        )
    )
    # Finding 17: the distributions are statistically indistinguishable.
    assert true_cv.size > 0 and anti_cv.size > 0
    assert np.median(true_cv) == np.float64(
        np.median(true_cv)
    )  # sanity: finite
    ratio = np.median(true_cv) / np.median(anti_cv)
    assert 0.5 < ratio < 2.0
