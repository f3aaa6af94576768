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

:meth:`MemorySystem.run` is one epoch-batched loop. Each core's addresses
are drawn :data:`STREAM_CHUNK` at a time into a :class:`CoreStream`, which
a sweep shares across every run of a mix. The mitigation's counters live
in the array-backed batchers of :mod:`repro.mitigations.fast`: the loop
buffers every activation the batcher proves action-free (outside its
*danger set*, within its epoch *budget*) and absorbs the buffer in one
``on_activate_many`` call; only the other activations step exactly. Bank
state is three flat lists and actions travel as plain tuples.

Its oracle is ``reference_memsim_run`` in ``tests/differential/
harness.py``, one iteration per request and one ``on_activate`` per
activation: same requests and latency sums per core (the same float
operations in the same order), hit/miss split, preventive-refresh and
rank-block counts, and the same REF/PRE/ACT stream for the timing checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.errors import SimulationError
from repro.memsim.trace import AddressGenerator, WorkloadMix
from repro.mitigations.base import Mitigation, VICTIM_REFRESH_NS
from repro.mitigations.fast import make_batcher

#: DDR5-class access latencies in nanoseconds.
_T_RCD = 14.1
_T_RP = 14.1
_T_CL = 14.1
_T_BL = 2.0  # burst transfer on the shared data bus
_T_RC = 46.1
_T_RFC = 295.0
_T_REFI = 3_900.0
_T_REFW = 32_000_000.0

#: Pre-summed row-miss access latency: ``start + _MISS_LATENCY`` rounds
#: once, where ``start + _T_RCD + _T_CL`` would round twice.
_MISS_LATENCY = _T_RCD + _T_CL

#: Effectively-infinite epoch budget used when no mitigation is attached.
_NO_MITIGATION = 1 << 62

#: Requests materialized per stream-growth step.
STREAM_CHUNK = 4096

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
    #: stream against the loop's DDR5-class timing rules.
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


class CoreStream:
    """One core's address stream, materialized :data:`STREAM_CHUNK`
    addresses at a time (one vectorized
    :meth:`~repro.memsim.trace.AddressGenerator.take` each) as the
    simulation consumes it.

    A stream depends only on the (workload, core, geometry, seed) recipe,
    never on the mitigation, so a sweep shares one instance across every
    run of a mix: a shared stream (``retain=True``) keeps every address it
    has drawn, and each run reads it from the start. A private stream
    (``retain=False``) keeps only its current chunk.
    """

    __slots__ = ("source", "banks", "rows", "retain")

    def __init__(self, source: AddressGenerator, retain: bool = True):
        self.source = source
        self.banks: List[int] = []
        self.rows: List[int] = []
        self.retain = retain

    def grow(self, consumed: int) -> int:
        """Draw the next chunk once ``consumed`` addresses of
        :attr:`banks`/:attr:`rows` are used up; returns the index in the
        (possibly replaced) lists where the new chunk starts."""
        bank_array, row_array = self.source.take(STREAM_CHUNK)
        banks = bank_array.tolist()
        rows = row_array.tolist()
        if not self.retain:
            self.banks = banks
            self.rows = rows
            return 0
        self.banks.extend(banks)
        self.rows.extend(rows)
        return consumed


class MemorySystem:
    """One four-core system instance; ``run`` simulates one window."""

    def __init__(
        self,
        mix: WorkloadMix,
        config: Optional[SystemConfig] = None,
        mitigation: Optional[Mitigation] = None,
    ):
        self.mix = mix
        self.config = config or SystemConfig()
        self.mitigation = mitigation
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

    def run(
        self, streams: Optional[Sequence[CoreStream]] = None
    ) -> SimulationResult:
        """Simulate one window and return per-core request throughput.

        Args:
            streams: Optional per-core address streams (one per core),
                e.g. shared across the runs of a sweep. They must come
                from the same generator recipe as this system's. Without
                them the system's own address generators are consumed, so
                each instance should be run once.

        With ``config.check_timing`` every REF, PRE and ACT the loop
        schedules is fed to a :class:`~repro.dram.checker.TimingChecker`,
        which raises on the first violation.
        """
        recorder = obs.active()
        with recorder.span("memsim.run"):
            return self._run(streams, recorder)

    def _run(
        self, streams: Optional[Sequence[CoreStream]], recorder
    ) -> SimulationResult:
        config = self.config
        mitigation = self.mitigation
        if streams is None:
            streams = [
                CoreStream(source, retain=False) for source in self._generators
            ]
        elif len(streams) != 4:
            raise SimulationError("need one stream per core")

        checker = None
        if config.check_timing:
            from repro.dram.commands import Command, CommandKind

            checker = _checker_for(config)

        # Aggregates are recorded once per run, after the loop; the only
        # tracing state the hot loop carries is two plain int increments on
        # rare branches (epoch flush, exact step).
        epochs = 0
        exact_steps = 0

        batcher = None
        if mitigation is not None:
            batcher = make_batcher(mitigation, config.n_banks, config.n_rows)

        window_ns = config.window_ns
        t_refw = config.t_refw_ns
        n_banks = config.n_banks
        n_rows = config.n_rows
        gaps = list(self._gaps)

        arrivals = [0.0, 0.0, 0.0, 0.0]
        completed = [0, 0, 0, 0]
        latency_sums = [0.0, 0.0, 0.0, 0.0]
        positions = [0, 0, 0, 0]
        stream_banks = [stream.banks for stream in streams]
        stream_rows = [stream.rows for stream in streams]

        bank_ready = [0.0] * n_banks
        bank_open: List[Optional[int]] = [None] * n_banks
        bank_last = [-1e9] * n_banks
        row_hits = 0
        row_misses = 0
        bus_free = 0.0
        rank_blocked_until = 0.0
        next_ref = _T_REFI if config.refresh_enabled else float("inf")
        next_window = t_refw

        pending_banks: List[int] = []
        pending_rows: List[int] = []
        if batcher is not None:
            budget = batcher.budget()
            danger = batcher.danger  # mutated in place, never rebound
            danger_by_bank = batcher.danger_by_bank
        else:
            budget = _NO_MITIGATION
            danger = ()
            danger_by_bank = False

        while True:
            # Inlined 4-way arbiter: earliest arrival, lowest core on ties.
            core = 0
            arrival = arrivals[0]
            if arrivals[1] < arrival:
                core = 1
                arrival = arrivals[1]
            if arrivals[2] < arrival:
                core = 2
                arrival = arrivals[2]
            if arrivals[3] < arrival:
                core = 3
                arrival = arrivals[3]
            if arrival >= window_ns:
                break

            position = positions[core]
            try:
                bank_index = stream_banks[core][position]
            except IndexError:  # this core's chunk is used up
                stream = streams[core]
                position = stream.grow(position)
                stream_banks[core] = stream.banks
                stream_rows[core] = stream.rows
                bank_index = stream.banks[position]
            row = stream_rows[core][position]
            positions[core] = position + 1

            start = arrival
            ready = bank_ready[bank_index]
            if ready > start:
                start = ready
            if rank_blocked_until > start:
                start = rank_blocked_until

            # Periodic refresh stalls the rank.
            while next_ref <= start:
                ref_end = next_ref + _T_RFC
                if start < ref_end:
                    start = ref_end
                if checker is not None:
                    _feed(checker, Command(CommandKind.REF, next_ref))
                next_ref += _T_REFI
            # Tracking-window boundary for the mitigation.
            if batcher is not None and start >= next_window:
                if pending_banks:
                    batcher.on_activate_many(pending_banks, pending_rows)
                    pending_banks = []
                    pending_rows = []
                batcher.on_refresh_window(start)
                next_window += t_refw
                budget = batcher.budget()
                epochs += 1

            open_row = bank_open[bank_index]
            needs_act = open_row != row
            if needs_act:
                row_misses += 1
                if open_row is not None:
                    start += _T_RP
                paced = bank_last[bank_index] + _T_RC
                if paced > start:
                    start = paced
                if checker is not None:
                    # Closing an open row precharges exactly tRP before
                    # the new activation (tRAS then holds via tRC - tRP).
                    if open_row is not None:
                        _feed(checker, Command(
                            CommandKind.PRE, start - _T_RP, bank=bank_index
                        ))
                    _feed(checker, Command(
                        CommandKind.ACT, start, bank=bank_index, row=row
                    ))
                bank_last[bank_index] = start
                completion = start + _MISS_LATENCY
            else:
                row_hits += 1
                completion = start + _T_CL
            # Shared data bus serializes bursts.
            burst = bus_free + _T_BL
            if burst > completion:
                completion = burst
            bus_free = completion

            bank_open[bank_index] = row
            bank_ready[bank_index] = completion

            if needs_act and batcher is not None:
                key = bank_index if danger_by_bank else bank_index * n_rows + row
                take_step = key in danger
                if not take_step:
                    if budget < 0:  # stale since the last exact step
                        budget = batcher.budget()
                    if budget > 0:
                        pending_banks.append(bank_index)
                        pending_rows.append(row)
                        budget -= 1
                        if budget == 0:
                            batcher.on_activate_many(pending_banks, pending_rows)
                            pending_banks = []
                            pending_rows = []
                            budget = batcher.budget()
                    else:
                        take_step = True
                if take_step:
                    exact_steps += 1
                    if pending_banks:
                        batcher.on_activate_many(pending_banks, pending_rows)
                        pending_banks = []
                        pending_rows = []
                    action = batcher.step(bank_index, row, start)
                    if action is not None:
                        victims, rank_block_ns, bank_delays = action
                        for victim_bank, victim_row in victims:
                            if 0 <= victim_bank < n_banks:
                                busy_from = bank_ready[victim_bank]
                                if completion > busy_from:
                                    busy_from = completion
                                bank_ready[victim_bank] = (
                                    busy_from + VICTIM_REFRESH_NS
                                )
                                # The refresh activates the victim row,
                                # closing whatever was open in that bank.
                                bank_open[victim_bank] = None
                        if rank_block_ns > 0:
                            blocked = rank_blocked_until
                            if completion > blocked:
                                blocked = completion
                            rank_blocked_until = blocked + rank_block_ns
                        for delayed_bank, delay_ns in bank_delays:
                            if 0 <= delayed_bank < n_banks:
                                busy_from = bank_ready[delayed_bank]
                                if completion > busy_from:
                                    busy_from = completion
                                bank_ready[delayed_bank] = busy_from + delay_ns
                    budget = -1  # recompute lazily at the next buffered miss

            completed[core] += 1
            latency_sums[core] += completion - arrival
            arrivals[core] = completion + gaps[core]

        if batcher is not None:
            if pending_banks:
                batcher.on_activate_many(pending_banks, pending_rows)
            batcher.finalize()

        result = SimulationResult(
            mix_name=self.mix.name,
            mitigation_name=(mitigation.name if mitigation else "baseline"),
            window_ns=window_ns,
            requests_per_core=completed,
            total_latency_per_core=latency_sums,
            row_hits=row_hits,
            row_misses=row_misses,
        )
        if mitigation is not None:
            result.preventive_refreshes = mitigation.preventive_refreshes
            result.rank_blocks = mitigation.rank_blocks

        if recorder.enabled:
            recorder.counter_add("memsim.runs")
            recorder.counter_add("memsim.requests", sum(completed))
            recorder.counter_add("memsim.row_hits", row_hits)
            recorder.counter_add("memsim.row_misses", row_misses)
            if batcher is not None:
                recorder.counter_add("memsim.epochs", epochs)
                recorder.counter_add("memsim.exact_steps", exact_steps)
                recorder.counter_add(
                    "memsim.batched_activations", row_misses - exact_steps
                )
            if mitigation is not None:
                recorder.counter_add(
                    f"mitigations.{mitigation.name}.preventive_refreshes",
                    result.preventive_refreshes,
                )
                recorder.counter_add(
                    f"mitigations.{mitigation.name}.rank_blocks",
                    result.rank_blocks,
                )
        return result
