"""Fig. 12: expected normalized minimum RDT with one measurement at 50, 65,
and 80 Celsius (Finding 16: temperature changes the VRD profile).
"""

import numpy as np

from repro.analysis.tables import format_table
from benchmarks.conftest import temperature_campaign

MODULES = ("M0", "M1", "S0", "S3", "H1", "H2")


def test_fig12_temperature(benchmark):
    def run():
        output = {}
        for module_id in MODULES:
            result = temperature_campaign(module_id)
            per_temp = {}
            for temperature in (50.0, 65.0, 80.0):
                _, dist = result.min_rdt_distributions(
                    (1,),
                    predicate=lambda obs, t=temperature: (
                        obs.config.temperature_c == t
                    ),
                )[1]
                per_temp[temperature] = (
                    float(np.median(dist)), float(dist.max())
                )
            output[module_id] = per_temp
        return output

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for module_id, per_temp in results.items():
        for temperature, (median, worst) in sorted(per_temp.items()):
            rows.append((module_id, f"{temperature:g}C", median, worst))
    print()
    print(
        format_table(
            ["module", "temperature", "median E[min]/min (N=1)", "max"],
            rows,
            title="Fig. 12 | VRD profile by temperature (Rowstripe-class "
                  "conditions aggregated)",
        )
    )

    # Finding 16: the profile changes with temperature everywhere, and for
    # the Mfr. M dies it worsens from 50C to 80C (paper: 1.06 -> 1.07).
    for module_id, per_temp in results.items():
        medians = [median for median, _ in per_temp.values()]
        assert max(medians) - min(medians) > 1e-4
    for module_id in ("M0", "M1"):
        assert (
            results[module_id][80.0][0] >= results[module_id][50.0][0] - 0.002
        )
