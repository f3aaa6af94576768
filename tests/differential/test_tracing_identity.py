"""Tracing must be a pure observer: bit-identical results on or off.

The observability layer records wall/CPU clocks and plain counters only —
never anything from the seeded RNG streams. These tests run the same
differential workloads with tracing off and on, and require exactly
equal fingerprints each way.
"""

import pytest

from repro import obs
from tests.differential.harness import CASES, SEEDS

CASE_IDS = [case.name for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_tracing_on_is_bit_identical_to_off(case):
    seed = SEEDS[0]
    plain = case.fast(seed)
    with obs.tracing() as recorder:
        traced = case.fast(seed)
    assert traced == plain
    # The run must actually have been observed, not silently untraced.
    snapshot = recorder.snapshot()
    assert snapshot["counters"] or snapshot["spans"]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_tracing_does_not_disturb_oracle_paths(case):
    seed = SEEDS[1]
    plain = case.oracle(seed)
    with obs.tracing():
        traced = case.oracle(seed)
    assert traced == plain
