"""Fig. 14: four-core performance under Graphene, PRAC, PARA, and MINT,
normalized to a mitigation-free baseline, for RDT 1024 and 128 with 0-50%
guardbands.

Runs through :func:`repro.memsim.sweep.run_sweep` — the epoch-batched
:meth:`~repro.memsim.system.MemorySystem.run` loop with per-mix shared
address streams, in one process, cached on disk alongside the campaign
cache. The sweep's speedups are bit-identical to the per-request oracle
loop run cell by cell (the ``memsim`` pair of ``tests/differential`` and
``tests/memsim/test_sweep.py`` assert this).
"""

from repro.analysis.tables import format_table
from repro.memsim.sweep import SweepSpec, run_sweep
from repro.store import ResultStore
from benchmarks.conftest import N_MIXES

MITIGATIONS = ("Graphene", "PRAC", "PARA", "MINT")
RDTS = (1024, 128)
MARGINS = (0.0, 0.10, 0.25, 0.50)


def test_fig14_mitigation_performance(benchmark):
    spec = SweepSpec(
        mitigations=MITIGATIONS,
        rdts=tuple(float(rdt) for rdt in RDTS),
        margins=MARGINS,
        n_mixes=N_MIXES,
    )

    def run():
        result = run_sweep(spec, cache=ResultStore.resolve())
        return result.table()

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for rdt in RDTS:
        for margin in MARGINS:
            rows.append(
                (
                    rdt,
                    f"{int(margin * 100)}%",
                    *(table[(rdt, margin, name)] for name in MITIGATIONS),
                )
            )
    print()
    print(
        format_table(
            ["RDT", "margin", *MITIGATIONS],
            rows,
            title=f"Fig. 14 | normalized weighted speedup ({N_MIXES} "
                  "four-core mixes)",
        )
    )

    # Near-future RDT 1024: small overheads for everyone (paper's left half).
    for name in MITIGATIONS:
        assert table[(1024, 0.0, name)] > 0.90
    # Future RDT 128 + 50% margin: tracker-based mitigations stay cheap,
    # probabilistic/minimalist ones pay heavily (paper: Graphene -8.5%,
    # PRAC -7.6%, PARA -35%, MINT -45% relative).
    assert table[(128, 0.50, "Graphene")] > table[(128, 0.50, "PARA")]
    assert table[(128, 0.50, "PRAC")] > table[(128, 0.50, "MINT")]
    assert table[(128, 0.50, "MINT")] < 0.75
    assert table[(128, 0.50, "PARA")] < 0.80
    # Guardbands cost performance: 50% margin is never better than none.
    for name in MITIGATIONS:
        assert table[(128, 0.50, name)] <= table[(128, 0.0, name)] + 0.01
    # Footnote 16: PRAC and MINT overheads are flat from 128 to ~115
    # (10% margin) because their action cadence is quantized.
    assert abs(
        table[(128, 0.10, "MINT")] - table[(128, 0.0, "MINT")]
    ) < 0.01
