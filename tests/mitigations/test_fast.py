"""Batcher-vs-reference equivalence for the array-backed fast paths.

Drives each :mod:`repro.mitigations.fast` batcher exactly the way
``MemorySystem.run`` does — screened epochs absorbed through
``on_activate_many``, dangerous or budget-exhausted activations stepped —
against a twin reference instance fed one ``on_activate`` per activation,
and asserts identical actions at identical positions plus identical final
counters. This is the contract that makes the simulation loop
bit-identical to its per-request oracle.
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
from repro.mitigations.fast import (
    BlockHammerBatcher,
    GenericBatcher,
    GrapheneBatcher,
    MintBatcher,
    MitigationBatcher,
    ParaBatcher,
    PracBatcher,
    make_batcher,
)
from repro.profiling.policy import StaticThresholdPolicy

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


def drive_and_compare(batcher, reference, sequence, windows_at=()):
    """Run the simulation loop's epoch protocol; compare with per-act
    reference."""
    windows_at = set(windows_at)
    budget = batcher.budget()
    danger = batcher.danger
    by_bank = batcher.danger_by_bank
    pending_banks, pending_rows = [], []

    def flush():
        nonlocal pending_banks, pending_rows
        if pending_banks:
            batcher.on_activate_many(pending_banks, pending_rows)
            pending_banks, pending_rows = [], []

    now = 0.0
    for index, (bank, row) in enumerate(sequence):
        if index in windows_at:
            flush()
            batcher.on_refresh_window(now)
            reference.on_refresh_window(now)
            budget = batcher.budget()
        ref_action = reference.on_activate(bank, row, now)

        key = bank if by_bank else bank * N_ROWS + row
        take_step = key in danger
        if not take_step:
            if budget < 0:
                budget = batcher.budget()
            if budget > 0:
                # Screened activations are guaranteed action-free.
                assert ref_action.is_noop, f"screened action at act {index}"
                pending_banks.append(bank)
                pending_rows.append(row)
                budget -= 1
                if budget == 0:
                    flush()
                    budget = batcher.budget()
            else:
                take_step = True
        if take_step:
            flush()
            action = batcher.step(bank, row, now)
            if ref_action.is_noop:
                assert action is None, f"spurious action at act {index}"
            else:
                assert action is not None, f"missing action at act {index}"
                victims, rank_ns, bank_delays = action
                assert list(victims) == list(ref_action.victim_refreshes)
                assert rank_ns == ref_action.rank_block_ns
                assert list(bank_delays) == list(ref_action.bank_delays)
            budget = -1
        now += 10.0

    flush()
    batcher.finalize()
    mitigation = batcher.mitigation
    assert mitigation.preventive_refreshes == reference.preventive_refreshes
    assert mitigation.rank_blocks == reference.rank_blocks


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_graphene_batcher_equivalence(threshold):
    batcher = GrapheneBatcher(Graphene(threshold), N_BANKS, N_ROWS)
    drive_and_compare(
        batcher, Graphene(threshold), hot_sequence(4000),
        windows_at=(1500, 3000),
    )


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_prac_batcher_equivalence(threshold):
    batcher = PracBatcher(Prac(threshold), N_BANKS, N_ROWS)
    drive_and_compare(
        batcher, Prac(threshold), hot_sequence(4000),
        windows_at=(1500, 3000),
    )


@pytest.mark.parametrize("threshold", [512, 64, 12])
def test_mint_batcher_equivalence(threshold):
    # Stochastic: twin instances share a seed; the batcher's chunked draws
    # must align with the reference's per-activation draws.
    batcher = MintBatcher(Mint(threshold, seed=9), N_BANKS)
    drive_and_compare(
        batcher, Mint(threshold, seed=9), hot_sequence(4000),
        windows_at=(1500, 3000),
    )


@pytest.mark.parametrize("threshold", [512, 64])
def test_para_batcher_equivalence(threshold):
    batcher = ParaBatcher(Para(threshold, seed=9))
    drive_and_compare(
        batcher, Para(threshold, seed=9), hot_sequence(4000),
        windows_at=(1500, 3000),
    )


def test_base_batcher_refuses_window_reset():
    # A new batcher must say what it resets at a tREFW boundary.
    with pytest.raises(NotImplementedError):
        MitigationBatcher(Para(64)).on_refresh_window(0.0)


@pytest.mark.parametrize("threshold", [256, 48])
def test_blockhammer_batcher_equivalence(threshold):
    batcher = BlockHammerBatcher(BlockHammer(threshold), N_BANKS)
    reference = BlockHammer(threshold)
    drive_and_compare(
        batcher, reference, hot_sequence(4000), windows_at=(2000,)
    )
    assert batcher.mitigation.throttled_activations == (
        reference.throttled_activations
    )


def test_graphene_spillover_equivalence():
    # Force a tiny Misra-Gries table so the spillover/eviction branch runs.
    def tiny():
        graphene = Graphene(64)
        graphene.table_size = 3
        return graphene

    batcher = GrapheneBatcher(tiny(), N_BANKS, N_ROWS)
    # Wide row set on few banks so tables overflow constantly.
    rng = np.random.default_rng(5)
    sequence = [
        (int(b), int(r))
        for b, r in zip(
            rng.integers(0, 2, size=3000), rng.integers(0, 40, size=3000)
        )
    ]
    drive_and_compare(batcher, tiny(), sequence, windows_at=(1200,))


def test_generic_batcher_is_exact_passthrough():
    def build():
        return AdaptiveMitigation(
            Graphene, StaticThresholdPolicy(32.0), check_every=64
        )

    batcher = make_batcher(build(), N_BANKS, N_ROWS)
    assert isinstance(batcher, GenericBatcher)
    assert batcher.budget() == 0
    drive_and_compare(batcher, build(), hot_sequence(1500))


def test_make_batcher_dispatch():
    assert isinstance(make_batcher(Graphene(64), 8, 128), GrapheneBatcher)
    assert isinstance(make_batcher(Prac(64), 8, 128), PracBatcher)
    assert isinstance(make_batcher(Para(64), 8, 128), ParaBatcher)
    assert isinstance(make_batcher(Mint(64), 8, 128), MintBatcher)
    assert isinstance(make_batcher(BlockHammer(64), 8, 128), BlockHammerBatcher)
    # Unknown mechanisms and table-unsafe streams take the generic path.
    adaptive = AdaptiveMitigation(Graphene, StaticThresholdPolicy(64.0))
    assert isinstance(make_batcher(adaptive, 8, 128), GenericBatcher)
    assert isinstance(
        make_batcher(Graphene(64), 8, 128, allow_tables=False), GenericBatcher
    )
