"""Fig. 9: expected normalized minimum RDT across die densities and die
revisions (Finding 11: VRD worsens with density and advanced nodes).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.chips import spec
from benchmarks.conftest import reference_campaign

#: (manufacturer, representative modules per density/revision group).
GROUPS = (
    ("M", "16Gb-E", "M0"),
    ("M", "16Gb-F", "M1"),
    ("H", "8Gb-A", "H2"),
    ("H", "16Gb-C", "H1"),
    ("S", "8Gb-C", "S0"),
    ("S", "16Gb-A", "S3"),
)


def test_fig09_density_and_revision(benchmark):
    def run():
        output = []
        for vendor, group, module_id in GROUPS:
            result = reference_campaign(module_id)
            distributions = result.min_rdt_distributions((1, 5, 50))
            for n, (_, dist) in distributions.items():
                output.append(
                    (
                        vendor,
                        group,
                        module_id,
                        n,
                        float(np.median(dist)),
                        float(dist.max()),
                    )
                )
        return output

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["mfr", "density-rev", "module", "N", "median E[min]/min", "max"],
            rows,
            title="Fig. 9 | expected normalized min RDT by die density/revision",
        )
    )

    def median_for(module_id, n):
        return next(r[4] for r in rows if r[2] == module_id and r[3] == n)

    # Finding 11 for Mfr. M: the more advanced 16Gb-F die (M1) shows a
    # worse profile than the 16Gb-E die (M0); paper quotes 1.08 vs 1.06.
    assert median_for("M1", 1) > median_for("M0", 1)
    # Medians shrink with more measurements for every group.
    for _, _, module_id in GROUPS:
        assert median_for(module_id, 50) <= median_for(module_id, 1)
    # Table 7 ordering between vendors' shown groups is preserved: Mfr M's
    # advanced die is the worst of the six.
    n1_medians = {r[2]: r[4] for r in rows if r[3] == 1}
    assert max(n1_medians, key=n1_medians.get) in ("M1", "M0")
