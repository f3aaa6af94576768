"""Edge cases in the MemorySystem timing loop.

Each scenario asserts the per-request oracle's behavior AND that
``MemorySystem.run`` reproduces it bit-for-bit — these are exactly the
branches (refresh stalls, rank blocks overlapping victim refreshes, empty
tracking windows, out-of-range victims) where the two loops could
plausibly diverge.
"""

from typing import List, Tuple

from repro.memsim import MemorySystem, SystemConfig, standard_mixes
from repro.memsim.system import _T_RFC
from repro.memsim.trace import SyntheticWorkload, WorkloadMix
from repro.mitigations import Mint
from repro.mitigations.base import Mitigation, PreventiveAction
from tests.differential.harness import (
    memsim_fingerprint as fingerprint,
    reference_memsim_run,
)

MIX = standard_mixes(1)[0]


def run_both(mix, config, build):
    reference = reference_memsim_run(MemorySystem(mix, config, build()))
    fast = MemorySystem(mix, config, build()).run()
    assert fingerprint(fast) == fingerprint(reference)
    return reference


def test_refresh_stall_mid_request():
    # A sparse request stream straddles the first tREFI boundary: the
    # request that lands inside the refresh is pushed past it, inflating
    # its latency by up to tRFC.
    sparse = SyntheticWorkload("sparse", 0.5, 0.0, hot_rows=4)
    mix = WorkloadMix("sparse-mix", (sparse,) * 4)
    config = SystemConfig(window_ns=8_000.0)
    with_refresh = run_both(mix, config, lambda: None)
    without = MemorySystem(
        mix, SystemConfig(window_ns=8_000.0, refresh_enabled=False)
    ).run()
    delays = [
        stalled - free
        for stalled, free in zip(
            with_refresh.total_latency_per_core, without.total_latency_per_core
        )
    ]
    # At least one core's request was stalled by a meaningful part of tRFC.
    assert max(delays) > _T_RFC / 2
    assert with_refresh.total_requests <= without.total_requests


def test_rank_block_overlapping_victim_refresh():
    # MINT at a tiny threshold issues RFMs (rank block + victim refreshes
    # on the same completion instant); the overlap resolution must match.
    config = SystemConfig(window_ns=20_000.0)
    reference = run_both(MIX, config, lambda: Mint(8, seed=3))
    assert reference.rank_blocks > 0
    assert reference.preventive_refreshes > 0
    baseline = MemorySystem(MIX, config).run()
    assert reference.total_requests < baseline.total_requests


class WindowCounter(Mitigation):
    """Counts tREFW boundaries, never acts."""

    name = "WindowCounter"

    def __init__(self):
        super().__init__(1024.0)
        self.windows_seen = 0

    def on_activate(self, bank: int, row: int, now: float) -> PreventiveAction:
        return PreventiveAction()

    def on_refresh_window(self, now: float) -> None:
        self.windows_seen += 1


def test_refresh_window_fires_without_actions():
    # Tracking windows tick even when the mitigation never acts, and an
    # action-free mitigated run matches the baseline's timing exactly.
    config = SystemConfig(window_ns=20_000.0, t_refw_ns=3_000.0)
    reference_system = MemorySystem(MIX, config, WindowCounter())
    reference = reference_memsim_run(reference_system)
    fast_system = MemorySystem(MIX, config, WindowCounter())
    fast = fast_system.run()
    assert fingerprint(fast) == fingerprint(reference)
    assert reference_system.mitigation.windows_seen >= 4
    assert (
        fast_system.mitigation.windows_seen
        == reference_system.mitigation.windows_seen
    )
    assert reference.preventive_refreshes == 0
    baseline = MemorySystem(MIX, config).run()
    assert reference.requests_per_core == baseline.requests_per_core
    assert reference.total_latency_per_core == baseline.total_latency_per_core


class StrayVictimRefresher(Mitigation):
    """Issues victim refreshes that include out-of-range banks."""

    name = "StrayVictims"

    def __init__(self, victims: List[Tuple[int, int]], every: int = 50):
        super().__init__(1024.0)
        self.victims = victims
        self.every = every
        self._acts = 0

    def on_activate(self, bank: int, row: int, now: float) -> PreventiveAction:
        self._acts += 1
        if self._acts % self.every == 0:
            return self._count_action(
                PreventiveAction(victim_refreshes=list(self.victims))
            )
        return PreventiveAction()


def test_out_of_range_victim_banks_skipped():
    # Victims aimed at banks outside [0, n_banks) are ignored: timing is
    # identical to a mitigation issuing only the in-range victims.
    config = SystemConfig(window_ns=20_000.0)
    in_range = [(2, 10), (5, 11)]
    stray = in_range + [(-1, 3), (config.n_banks, 4), (999, 5)]
    with_stray = run_both(MIX, config, lambda: StrayVictimRefresher(stray))
    clean = MemorySystem(
        MIX, config, StrayVictimRefresher(in_range)
    ).run()
    assert with_stray.requests_per_core == clean.requests_per_core
    assert with_stray.total_latency_per_core == clean.total_latency_per_core
    # The stray victims still count as requested refreshes (the reference
    # counts the action's full victim list), so the counters differ there.
    assert with_stray.preventive_refreshes > clean.preventive_refreshes
