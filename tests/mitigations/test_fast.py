"""Epoch protocol vs per-activation reference, for every mechanism.

Drives each :mod:`repro.mitigations` mechanism exactly the way
``MemorySystem.run`` does — screened epochs absorbed through
``on_activate_many``, dangerous or budget-exhausted activations stepped —
against its reference from ``tests/differential/mitigation_oracle.py``
fed one ``on_activate`` per activation, and asserts identical actions at
identical positions plus identical final counters. This is the contract
that makes the simulation loop bit-identical to its per-request oracle.
"""

import numpy as np
import pytest

from repro.mitigations import (
    AdaptiveMitigation,
    BlockHammer,
    Graphene,
    Mint,
    Para,
    Prac,
)
from repro.profiling.policy import StaticThresholdPolicy
from tests.differential.mitigation_oracle import oracle_of

N_BANKS = 4
N_ROWS = 64


def hot_sequence(length, n_hot_rows=20, seed=3):
    """Hot-row-biased (bank, row) activations, like real workloads."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_hot_rows + 1) ** 1.2
    weights /= weights.sum()
    rows = rng.choice(n_hot_rows, size=length, p=weights)
    banks = rng.integers(0, N_BANKS, size=length)
    return list(zip(banks.tolist(), rows.tolist()))


def drive_and_compare(mitigation, sequence, windows_at=()):
    """Run the simulation loop's epoch protocol; compare with the
    per-activation reference. Returns the reference."""
    reference = oracle_of(mitigation)
    mitigation.start(N_BANKS, N_ROWS)
    windows_at = set(windows_at)
    budget = mitigation.budget()
    danger = mitigation.danger
    by_bank = mitigation.danger_by_bank
    pending_banks, pending_rows = [], []

    def flush():
        nonlocal pending_banks, pending_rows
        if pending_banks:
            mitigation.on_activate_many(pending_banks, pending_rows)
            pending_banks, pending_rows = [], []

    for index, (bank, row) in enumerate(sequence):
        if index in windows_at:
            flush()
            mitigation.on_refresh_window()
            reference.on_refresh_window()
            budget = mitigation.budget()
        ref_action = reference.on_activate(bank, row)

        key = bank if by_bank else bank * N_ROWS + row
        take_step = key in danger
        if not take_step:
            if budget < 0:
                budget = mitigation.budget()
            if budget > 0:
                # Screened activations are guaranteed action-free.
                assert ref_action is None, f"screened action at act {index}"
                pending_banks.append(bank)
                pending_rows.append(row)
                budget -= 1
                if budget == 0:
                    flush()
                    budget = mitigation.budget()
            else:
                take_step = True
        if take_step:
            flush()
            action = mitigation.step(bank, row)
            assert action == ref_action, f"action mismatch at act {index}"
            budget = -1

    flush()
    assert mitigation.preventive_refreshes == reference.preventive_refreshes
    assert mitigation.rank_blocks == reference.rank_blocks
    return reference


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_graphene_batcher_equivalence(threshold):
    drive_and_compare(
        Graphene(threshold), hot_sequence(4000), windows_at=(1500, 3000)
    )


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_prac_batcher_equivalence(threshold):
    drive_and_compare(
        Prac(threshold), hot_sequence(4000), windows_at=(1500, 3000)
    )


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_mint_batcher_equivalence(threshold):
    # Stochastic: the reference derives its generator from the same seed;
    # the chunked draws must align with its per-activation draws.
    drive_and_compare(
        Mint(threshold, seed=9), hot_sequence(4000), windows_at=(1500, 3000)
    )


@pytest.mark.parametrize("threshold", [512, 64])
def test_para_batcher_equivalence(threshold):
    drive_and_compare(
        Para(threshold, seed=9), hot_sequence(4000), windows_at=(1500, 3000)
    )


@pytest.mark.parametrize("threshold", [256, 48])
def test_blockhammer_batcher_equivalence(threshold):
    blockhammer = BlockHammer(threshold)
    reference = drive_and_compare(
        blockhammer, hot_sequence(4000), windows_at=(2000,)
    )
    assert blockhammer.throttled_activations == (
        reference.throttled_activations
    )


def test_graphene_spillover_equivalence():
    # Force a tiny Misra-Gries table so the spillover/eviction branch runs.
    graphene = Graphene(64)
    graphene.table_size = 3
    # Wide row set on few banks so tables overflow constantly.
    rng = np.random.default_rng(5)
    sequence = [
        (int(b), int(r))
        for b, r in zip(
            rng.integers(0, 2, size=3000), rng.integers(0, 40, size=3000)
        )
    ]
    drive_and_compare(graphene, sequence, windows_at=(1200,))


def test_adaptive_equivalence():
    adaptive = AdaptiveMitigation(Graphene, StaticThresholdPolicy(32.0))
    adaptive.check_every = 64
    drive_and_compare(adaptive, hot_sequence(1500))
