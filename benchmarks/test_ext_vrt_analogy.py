"""Extension: the VRT/VRD analogy (paper Sec. 4.2 and footnote 9).

The paper hypothesizes that VRD shares its mechanism class with variable
retention time — charge traps whose occupancy flips randomly. Our substrate
implements both phenomena with the same trap primitive; this bench puts
their measurement-series statistics side by side: multi-state values,
min-appears-rarely, and run-length structure.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, FastRdtMeter, TestConfig
from repro.core import stats
from repro.core.montecarlo import probability_of_min


def test_ext_vrt_vrd_analogy(benchmark):
    def run():
        module = build_module("M1", seed=11)
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
        meter = FastRdtMeter(module)

        vrd_series = meter.measure_series(70, config, 10_000).valid

        cell = module.retention.vrt_cell(0, 70)
        vrt_series = cell.retention_series(10_000)
        # Quantize retention times the way a retention test sweep would
        # (binary-search refresh intervals with ~1% resolution).
        step = vrt_series.mean() / 100.0
        vrt_measured = np.ceil(vrt_series / step) * step

        def describe(values):
            return (
                int(np.unique(values).size),
                float(values.max() / values.min()),
                probability_of_min(values, 1),
                float(stats.fraction_single_measurement_changes(values)),
            )

        return describe(vrd_series), describe(vrt_measured)

    vrd, vrt = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["phenomenon", "unique states", "max/min", "P(min | 1 meas)",
             "single-measurement changes"],
            [("VRD (RDT series)", *vrd), ("VRT (retention series)", *vrt)],
            title="Extension | VRT vs VRD measurement-series statistics",
        )
    )

    # The analogy's substance: both phenomena show multiple states and a
    # minimum that few measurements reveal.
    for unique, ratio, p_min, _ in (vrd, vrt):
        assert unique >= 2
        assert ratio > 1.01
        assert p_min < 0.5
    # And the difference the paper leaves open (footnote 9): VRT's low
    # state is a *large* discrete excursion (2-8x), VRD's variation is
    # proportionally subtler.
    assert vrt[1] > vrd[1]
