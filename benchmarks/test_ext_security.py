"""Extension: end-to-end security of RDT-configured mitigations under VRD.

The paper's central implication, made executable: profile a victim row with
N measurements, configure a mitigation with the observed minimum reduced by
a guardband, then attack for thousands of refresh windows while the row's
instantaneous RDT fluctuates. Reports the fraction of victims that flip.
"""

from repro.analysis.tables import format_table
from repro.chips import build_module
from repro.core import CHECKERED0, TestConfig
from repro.security import profile_and_attack

VICTIMS = list(range(80, 96))
KINDS = ("graphene", "prac", "para", "mint")
SCENARIOS = (
    (5, 0.0),     # few measurements, no guardband: today's risky practice
    (5, 0.10),    # the paper's minimum recommended guardband
    (5, 0.50),    # aggressive guardband
    (1000, 0.10),  # a full offline profile + guardband
)


def test_ext_security_matrix(benchmark):
    def run():
        module = build_module("M1", seed=21)
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
        table = {}
        for kind in KINDS:
            for n, margin in SCENARIOS:
                flips = 0
                worst_margin = 1.0
                for victim in VICTIMS:
                    outcome = profile_and_attack(
                        module, victim, config, kind,
                        profile_measurements=n, margin=margin,
                        windows=2000, seed=victim,
                    )
                    flips += outcome.flipped
                    worst_margin = min(
                        worst_margin, outcome.min_exposure_margin
                    )
                table[(kind, n, margin)] = (flips / len(VICTIMS), worst_margin)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for kind in KINDS:
        for n, margin in SCENARIOS:
            flip_rate, worst = table[(kind, n, margin)]
            rows.append(
                (kind, n, f"{int(margin * 100)}%", flip_rate, worst)
            )
    print()
    print(
        format_table(
            ["mitigation", "profile N", "guardband", "victim flip rate",
             "worst exposure margin"],
            rows,
            title="Extension | attack escape vs profiling budget and "
                  f"guardband ({len(VICTIMS)} victims, 2000 windows)",
        )
    )

    # PRAC with no guardband is risky (its power-of-two compare can round
    # the trigger above the profiled minimum); a guardband repairs it —
    # the paper's ">10% guardband" recommendation.
    assert table[("prac", 5, 0.0)][0] >= table[("prac", 5, 0.10)][0]
    assert table[("prac", 1000, 0.10)][0] <= table[("prac", 5, 0.0)][0]
    # Deterministic trackers with intrinsic headroom hold.
    assert table[("graphene", 5, 0.10)][0] == 0.0
    # A sampling-based in-DRAM tracker is bypassable by a diluting
    # attacker regardless of profiling effort.
    assert table[("mint", 1000, 0.10)][0] > 0.0
