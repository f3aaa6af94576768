"""Extension: when could RDT testing stop? (paper footnote 2, Takeaway 2)

Record statistics of the running minimum: for an i.i.d. series the n-th
measurement sets a new record with probability 1/n, so new minima keep
arriving forever at a slowly decaying rate — the mathematical form of the
paper's "one would not know when to stop testing". This bench measures the
record counts and last-record times across rows, against the i.i.d.
harmonic reference, and reports one-step-ahead prediction gains
(Finding 4's operational content: no simple predictor beats the mean).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.core.predict import (
    prediction_gains,
    record_minima,
    stopping_time_quantiles,
)

N_MEASUREMENTS = 10_000
ROWS = list(range(64, 88))


def test_ext_stopping_time_and_predictability(benchmark):
    def run():
        module = build_module("M1", seed=11)
        meter = FastRdtMeter(module)
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
        analyses = []
        gains_accumulator = {"last_value": [], "ar1": [], "histogram_mode": []}
        for row in ROWS:
            series = meter.measure_series(row, config, N_MEASUREMENTS)
            analyses.append(record_minima(series.valid))
            for name, gain in prediction_gains(series.valid).items():
                gains_accumulator[name].append(gain)
        return analyses, {
            name: float(np.median(values))
            for name, values in gains_accumulator.items()
        }

    analyses, gains = benchmark.pedantic(run, rounds=1, iterations=1)

    record_counts = [analysis.n_records for analysis in analyses]
    harmonic = analyses[0].expected_records_iid
    quantiles = stopping_time_quantiles(analyses)
    rows = [
        ("records per row (median)", float(np.median(record_counts))),
        ("records per row (max)", float(max(record_counts))),
        ("iid harmonic reference", harmonic),
        ("last new minimum: P50 measurement", quantiles[0.5]),
        ("last new minimum: P90 measurement", quantiles[0.9]),
        ("last new minimum: P99 measurement", quantiles[0.99]),
    ]
    print()
    print(
        format_table(
            ["statistic", "value"],
            rows,
            title=f"Extension | record-minimum statistics across "
                  f"{len(ROWS)} rows x {N_MEASUREMENTS} measurements",
        )
    )
    print(
        "one-step-ahead prediction gains (MSE / running-mean MSE): "
        + ", ".join(f"{k}={v:.3f}" for k, v in gains.items())
    )

    # New minima keep arriving deep into the series: for a sizable share
    # of rows the last record lands in the final 80% of measurements.
    last = np.array([a.record_indices[-1] for a in analyses])
    assert (last > N_MEASUREMENTS * 0.2).mean() > 0.3
    # Quantization + rare dips: fewer records than continuous iid, but
    # always more than one.
    assert 1 < np.median(record_counts) < harmonic
    # Finding 4: no predictor beats the running mean by more than ~10%.
    for name, gain in gains.items():
        assert gain > 0.9, name
