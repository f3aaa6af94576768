"""Extension (paper Sec. 6.5, direction 1): the wordline-voltage corner.

The paper names voltage variation as an uncharacterized axis. Our device
model extends the condition space with wordline voltage (weakened
disturbance under reduced VPP, per prior characterization work); this bench
sweeps it and reports how the VRD profile moves.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.core.montecarlo import expected_normalized_min

VOLTAGES = (2.5, 2.35, 2.2, 2.05)
ROWS = list(range(64, 84))


def test_ext_wordline_voltage(benchmark):
    def run():
        module = build_module("M1", seed=11)
        meter = FastRdtMeter(module)
        output = []
        for voltage in VOLTAGES:
            config = TestConfig(
                CHECKERED0, t_agg_on_ns=module.timing.tRAS,
                wordline_voltage_v=voltage,
            )
            means, cvs, enorms = [], [], []
            for row in ROWS:
                series = meter.measure_series(row, config, 500)
                means.append(series.mean)
                cvs.append(series.cv)
                enorms.append(
                    expected_normalized_min(series.require_valid(), 1)
                )
            output.append(
                (
                    voltage,
                    float(np.median(means)),
                    float(np.median(cvs)),
                    float(np.median(enorms)),
                )
            )
        return output

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["wordline voltage (V)", "median RDT", "median CV",
             "median E[min]/min (N=1)"],
            rows,
            title="Extension | VRD profile vs wordline voltage (module M1)",
        )
    )
    # Undervolting raises RDT monotonically (weaker disturbance)...
    medians = [median for _, median, _, _ in rows]
    assert medians == sorted(medians)
    # ...so a profile taken at one voltage corner does not transfer: the
    # nominal-corner RDT is far below the undervolted one.
    assert medians[-1] > 1.2 * medians[0]
