"""Fig. 10: expected normalized minimum RDT across the four data patterns
(Findings 12-13: pattern changes the VRD profile; no single worst pattern).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.patterns import ALL_PATTERNS
from benchmarks.conftest import reference_campaign

MODULES = ("H1", "M1", "S0", "Chip0")


def test_fig10_data_pattern(benchmark):
    def run():
        output = {}
        for module_id in MODULES:
            result = reference_campaign(module_id)
            per_pattern = {}
            for pattern in ALL_PATTERNS:
                _, dist = result.min_rdt_distributions(
                    (1,),
                    predicate=lambda obs, p=pattern: obs.config.pattern is p,
                )[1]
                per_pattern[pattern.name] = (
                    float(np.median(dist)), float(dist.max())
                )
            output[module_id] = per_pattern
        return output

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    worst_patterns = {}
    for module_id, per_pattern in results.items():
        for name, (median, worst) in per_pattern.items():
            rows.append((module_id, name, median, worst))
        worst_patterns[module_id] = max(
            per_pattern, key=lambda k: per_pattern[k][0]
        )
    print()
    print(
        format_table(
            ["module", "pattern", "median E[min]/min (N=1)", "max"],
            rows,
            title="Fig. 10 | VRD profile by data pattern",
        )
    )
    print("worst pattern per module:", worst_patterns)

    # Finding 12: the pattern matters — medians differ within each module.
    for module_id, per_pattern in results.items():
        medians = [m for m, _ in per_pattern.values()]
        assert max(medians) > min(medians)
    # Finding 13: no single pattern is worst everywhere.
    assert len(set(worst_patterns.values())) >= 2
