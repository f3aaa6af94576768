"""The four-core memory-system simulation (Fig. 14's substrate).

Model scope mirrors what Fig. 14 actually measures — how preventive
refreshes, RFMs, and back-offs issued by a mitigation slow memory-intensive
multicore workloads:

* four in-order cores, each with one outstanding LLC miss, generating
  requests from :class:`~repro.memsim.trace.SyntheticWorkload` models;
* banked DRAM with open-row state and DDR5-class latencies (tRCD/tRP/tCL,
  tRC pacing, shared data bus);
* periodic refresh (tREFI/tRFC) plus the mitigation hook on every row
  activation;
* performance metric: weighted speedup versus a mitigation-free baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.errors import SimulationError
from repro.memsim.trace import AddressGenerator, WorkloadMix
from repro.mitigations.base import Mitigation, VICTIM_REFRESH_NS

#: DDR5-class access latencies in nanoseconds.
_T_RCD = 14.1
_T_RP = 14.1
_T_CL = 14.1
_T_BL = 2.0  # burst transfer on the shared data bus
_T_RC = 46.1
_T_RFC = 295.0
_T_REFI = 3_900.0
_T_REFW = 32_000_000.0

#: The model only schedules bank-level row cycling and the rank-level
#: refresh cadence, so the opt-in timing check validates exactly those
#: rules. tRRD/tFAW/column cadences are outside this simulator's
#: contract, and so is tRFC recovery: the loop applies refresh stalls to
#: the request start *before* the row-cycle adjustment, so an ACT pushed
#: by tRP/tRC can land inside a refresh period by design.
_CHECKED_RULES = ("tRC", "tRAS", "tRP", "tREFI")


def _checker_for(config: "SystemConfig"):
    """A TimingChecker over the loop's DDR5-class constants."""
    from repro.dram.checker import TimingChecker
    from repro.dram.geometry import DramGeometry
    from repro.dram.timing import TimingParams

    timing = TimingParams(
        name="memsim-DDR5",
        data_rate_mts=8800,
        tRCD=_T_RCD,
        tRP=_T_RP,
        tRAS=_T_RC - _T_RP,
        tRTP=7.5,
        tWR=30.0,
        tCCD_L=5.0,
        tCCD_S=1.816,
        tCCD_L_WR=20.0,
        tRRD_S=1.816,
        tREFI=_T_REFI,
        tREFW=_T_REFW,
        tRFC=_T_RFC,
        protocol="DDR5",
    )
    geometry = DramGeometry(
        n_banks=config.n_banks, n_rows=config.n_rows, protocol="DDR5"
    )
    return TimingChecker(
        timing=timing, geometry=geometry, rule_names=_CHECKED_RULES
    )


def _feed(checker, entry) -> None:
    if checker.feed(entry):
        checker.report.raise_if_violations()


@dataclass
class SystemConfig:
    """Simulation parameters."""

    n_banks: int = 8
    n_rows: int = 1 << 14
    window_ns: float = 60_000.0
    core_freq_ghz: float = 4.0
    base_ipc: float = 2.0
    refresh_enabled: bool = True
    seed: int = 11
    #: Mitigation tracking-window period (tREFW). Overridable so tests can
    #: exercise window-boundary behavior without 32 ms simulations.
    t_refw_ns: float = _T_REFW
    #: Opt-in timing-check pass: validate the synthesized ACT/PRE/REF
    #: stream against the loop's DDR5-class timing rules. ``False`` still
    #: honors ``VRD_TIMING_CHECK=1`` in the environment.
    check_timing: bool = False

    def __post_init__(self) -> None:
        if self.n_banks < 1 or self.n_rows < 2:
            raise SimulationError("need at least 1 bank and 2 rows")
        if not 0 < self.window_ns < math.inf:
            raise SimulationError(
                f"window must be positive and finite, got {self.window_ns}"
            )
        if not 0 < self.t_refw_ns < math.inf:
            raise SimulationError(
                f"tREFW must be positive and finite, got {self.t_refw_ns}"
            )


@dataclass
class _BankState:
    ready: float = 0.0
    open_row: Optional[int] = None
    last_act: float = -1e9


@dataclass
class SimulationResult:
    """Outcome of one run."""

    mix_name: str
    mitigation_name: str
    window_ns: float
    requests_per_core: List[int] = field(default_factory=list)
    total_latency_per_core: List[float] = field(default_factory=list)
    row_hits: int = 0
    row_misses: int = 0
    preventive_refreshes: int = 0
    rank_blocks: int = 0

    @property
    def total_requests(self) -> int:
        return sum(self.requests_per_core)

    def throughput_per_core(self) -> List[float]:
        """Requests per microsecond, per core."""
        return [count / (self.window_ns / 1000.0) for count in self.requests_per_core]

    def mean_latency_per_core(self) -> List[float]:
        """Average memory latency in nanoseconds, per core."""
        return [
            total / count if count else 0.0
            for total, count in zip(
                self.total_latency_per_core, self.requests_per_core
            )
        ]

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0


class MemorySystem:
    """One four-core system instance; ``run`` simulates one window."""

    def __init__(
        self,
        mix: WorkloadMix,
        config: Optional[SystemConfig] = None,
        mitigation: Optional[Mitigation] = None,
        address_sources: Optional[list] = None,
    ):
        """``address_sources`` optionally replaces the synthetic address
        generators with four objects exposing ``next_address()`` — e.g.
        :class:`~repro.memsim.tracefile.TracePlayer` instances for
        trace-driven replay. Compute gaps still come from the mix's
        workload models."""
        self.mix = mix
        self.config = config or SystemConfig()
        self.mitigation = mitigation
        self._banks = [_BankState() for _ in range(self.config.n_banks)]
        if address_sources is not None:
            if len(address_sources) != 4:
                raise SimulationError("need one address source per core")
            self._generators = list(address_sources)
        else:
            self._generators = [
                AddressGenerator(
                    workload,
                    core,
                    self.config.n_banks,
                    self.config.n_rows,
                    self.config.seed,
                )
                for core, workload in enumerate(mix.workloads)
            ]
        self._gaps = [
            workload.gap_ns(self.config.core_freq_ghz, self.config.base_ipc)
            for workload in mix.workloads
        ]

    def run(self) -> SimulationResult:
        """Simulate one window and return per-core request throughput.

        This is the *reference* engine: one Python iteration per request.
        :meth:`run_fast` produces bit-identical results through the
        epoch-batched core in :mod:`repro.memsim.fastcore`.
        """
        recorder = obs.active()
        with recorder.span("memsim.run_reference"):
            result = self._run_reference()
        if recorder.enabled:
            recorder.counter_add("memsim.runs.reference")
            recorder.counter_add("memsim.requests", result.total_requests)
            recorder.counter_add("memsim.row_hits", result.row_hits)
            recorder.counter_add("memsim.row_misses", result.row_misses)
            if self.mitigation is not None:
                name = self.mitigation.name
                recorder.counter_add(
                    f"mitigations.{name}.preventive_refreshes",
                    result.preventive_refreshes,
                )
                recorder.counter_add(
                    f"mitigations.{name}.rank_blocks", result.rank_blocks
                )
        return result

    def _run_reference(self) -> SimulationResult:
        config = self.config
        arrivals = [0.0] * 4  # next request arrival per core
        completed = [0] * 4
        latency_sums = [0.0] * 4
        row_hits = 0
        row_misses = 0
        bus_free = 0.0
        rank_blocked_until = 0.0
        next_ref = _T_REFI if config.refresh_enabled else float("inf")
        next_window = config.t_refw_ns

        from repro.dram.checker import timing_check_enabled

        checker = None
        if timing_check_enabled(True if config.check_timing else None):
            from repro.dram.commands import Command, CommandKind

            checker = _checker_for(config)

        while True:
            core = min(range(4), key=lambda c: arrivals[c])
            arrival = arrivals[core]
            if arrival >= config.window_ns:
                break
            bank_index, row = self._generators[core].next_address()
            bank = self._banks[bank_index]

            start = max(arrival, bank.ready, rank_blocked_until)

            # Periodic refresh stalls the rank.
            while next_ref <= start:
                ref_end = next_ref + _T_RFC
                if start < ref_end:
                    start = ref_end
                if checker is not None:
                    _feed(checker, Command(CommandKind.REF, next_ref))
                next_ref += _T_REFI
            # Tracking-window boundary for the mitigation.
            if self.mitigation is not None and start >= next_window:
                self.mitigation.on_refresh_window(start)
                next_window += config.t_refw_ns

            needs_act = bank.open_row != row
            if needs_act:
                row_misses += 1
            else:
                row_hits += 1
            if needs_act:
                if bank.open_row is not None:
                    start += _T_RP
                start = max(start, bank.last_act + _T_RC)
                if checker is not None:
                    # Closing an open row precharges exactly tRP before
                    # the new activation (tRAS then holds via tRC - tRP).
                    if bank.open_row is not None:
                        _feed(checker, Command(
                            CommandKind.PRE, start - _T_RP, bank=bank_index
                        ))
                    _feed(checker, Command(
                        CommandKind.ACT, start, bank=bank_index, row=row
                    ))
                bank.last_act = start
                access_latency = _T_RCD + _T_CL
            else:
                access_latency = _T_CL

            completion = start + access_latency
            # Shared data bus serializes bursts.
            completion = max(completion, bus_free + _T_BL)
            bus_free = completion

            bank.open_row = row
            bank.ready = completion

            if needs_act and self.mitigation is not None:
                action = self.mitigation.on_activate(bank_index, row, start)
                if not action.is_noop:
                    for victim_bank, victim_row in action.victim_refreshes:
                        if not 0 <= victim_bank < config.n_banks:
                            continue
                        target = self._banks[victim_bank]
                        busy_from = max(target.ready, completion)
                        target.ready = busy_from + VICTIM_REFRESH_NS
                        # The refresh activates the victim row, closing
                        # whatever was open in that bank.
                        target.open_row = None
                    if action.rank_block_ns > 0:
                        rank_blocked_until = max(
                            rank_blocked_until, completion
                        ) + action.rank_block_ns
                    for delayed_bank, delay_ns in action.bank_delays:
                        if 0 <= delayed_bank < config.n_banks:
                            target = self._banks[delayed_bank]
                            target.ready = max(target.ready, completion) + delay_ns

            completed[core] += 1
            latency_sums[core] += completion - arrival
            arrivals[core] = completion + self._gaps[core]

        result = SimulationResult(
            mix_name=self.mix.name,
            mitigation_name=(
                self.mitigation.name if self.mitigation else "baseline"
            ),
            window_ns=config.window_ns,
            requests_per_core=completed,
            total_latency_per_core=latency_sums,
            row_hits=row_hits,
            row_misses=row_misses,
        )
        if self.mitigation is not None:
            result.preventive_refreshes = self.mitigation.preventive_refreshes
            result.rank_blocks = self.mitigation.rank_blocks
        return result

    def run_fast(self) -> SimulationResult:
        """Simulate one window through the epoch-batched fast core.

        Bit-identical to :meth:`run` on a freshly constructed system —
        request counts, latency sums, hit/miss counts, preventive
        refreshes, and rank blocks all match the reference loop exactly
        (``tests/memsim/test_fastcore.py`` asserts this across the Fig. 14
        grid). Like :meth:`run`, it consumes the system's address streams,
        so each :class:`MemorySystem` instance should be run once.

        With timing checking requested, the reference engine runs
        instead: the fast core is bit-identical but synthesizes no
        command stream for the checker to validate.
        """
        from repro.dram.checker import timing_check_enabled

        if timing_check_enabled(
            True if self.config.check_timing else None
        ):
            return self.run()
        from repro.memsim.fastcore import run_fast

        return run_fast(self)
