"""High-level DRAM Bender host API.

The host is what the characterization methodology programs against: it
prepares the device (disabling interference sources per Sec. 3.1), controls
temperature, reverse-engineers row adjacency, and executes the
initialize / hammer / compare trials that Algorithm 1 is built from. Each
trial replays a cached compiled plan of its program
(:mod:`repro.bender.compiler`); other programs, such as the adjacency
probes, run on the interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.bender.compiler import CompiledTrial, compile_trial
from repro.bender.interpreter import Interpreter
from repro.bender.platform import FpgaBoard, board_for
from repro.bender.program import Program, ProgramBuilder
from repro.bender.temperature import PidTemperatureController
from repro.core.patterns import DataPattern
from repro.dram.faults import Condition
from repro.dram.mapping import reverse_engineer_adjacency
from repro.dram.module import DramModule
from repro.errors import MeasurementError


class DramBender:
    """Host controller for one simulated testbed.

    Args:
        module: The device under test.
        controller: Optional PID temperature controller; when absent the
            testbed sits in a temperature-controlled room (the paper's
            HBM2 chips 1-3) and ``set_temperature`` adjusts the room.
        board: FPGA board descriptor; inferred from the module kind when
            omitted.
        init_radius: How far out the Table 2 neighborhood initialization
            reaches (the paper uses 8; smaller keeps unit tests fast while
            preserving the victim/aggressor/neighbor structure).
    """

    def __init__(
        self,
        module: DramModule,
        controller: Optional[PidTemperatureController] = None,
        board: Optional[FpgaBoard] = None,
        init_radius: int = 2,
    ):
        self.module = module
        self.controller = controller
        self.board = board or board_for(module)
        self.init_radius = init_radius
        self.interpreter = Interpreter(module)
        self._adjacency: Dict[int, Dict[int, List[int]]] = {}
        # The last trial plan and its key: a measurement sweep replays one
        # plan, and a scan over many victims holds one plan, not one each.
        self._trial_key: Optional[tuple] = None
        self._trial_plan: Optional[CompiledTrial] = None

    # ------------------------------------------------------------------
    # Testbed preparation (paper Sec. 3.1)
    # ------------------------------------------------------------------

    def prepare_for_characterization(self) -> None:
        """Disable refresh (and thereby TRR) and on-die ECC."""
        self.module.disable_interference_sources()

    def set_temperature(self, target_c: float) -> float:
        """Bring the device to the target temperature and hold it there."""
        if self.controller is not None:
            settled = self.controller.settle(target_c)
        else:
            settled = target_c  # temperature-controlled room
        self.module.set_temperature(settled)
        return settled

    @property
    def elapsed_ns(self) -> float:
        """Total simulated testbed time consumed so far."""
        return self.interpreter.now

    # ------------------------------------------------------------------
    # Row adjacency
    # ------------------------------------------------------------------

    def probe_neighbors(
        self, bank: int, row: int, hammer_count: int = 400_000
    ) -> List[int]:
        """Hammer one logical row hard and report which rows flipped.

        This is the reverse-engineering primitive of prior work the paper
        reuses: physical neighbors of the hammered row collect bitflips.
        Single-sided hammering is several times weaker than double-sided,
        hence the very large default hammer count.
        """
        n_rows = self.module.geometry.n_rows
        window = [
            candidate
            for candidate in range(row - 4, row + 5)
            if 0 <= candidate < n_rows and candidate != row
        ]
        fill = 0x55
        builder = ProgramBuilder(f"probe-{bank}-{row}")
        for candidate in window:
            builder.write_row(bank, candidate, fill)
        builder.write_row(bank, row, fill ^ 0xFF)
        builder.hammer(bank, [row], hammer_count, self.module.timing.tRAS)
        for candidate in window:
            builder.read_row(bank, candidate, f"r{candidate}")
        result = self.interpreter.run(builder.build())
        expected = np.full(self.module.geometry.row_bytes, fill, dtype=np.uint8)
        flipped = []
        for candidate in window:
            if np.any(result.reads[f"r{candidate}"] != expected):
                flipped.append(candidate)
        return flipped

    def discover_adjacency(
        self, bank: int, rows: Sequence[int], hammer_count: int = 400_000
    ) -> Dict[int, List[int]]:
        """Reverse-engineer the logical neighbors of the given rows."""
        adjacency = reverse_engineer_adjacency(
            self.module.geometry.n_rows,
            lambda row: self.probe_neighbors(bank, row, hammer_count),
            rows,
        )
        self._adjacency.setdefault(bank, {}).update(adjacency)
        return adjacency

    def aggressors_for(self, bank: int, victim: int) -> List[int]:
        """Logical aggressor rows for a double-sided attack on ``victim``.

        Uses discovered adjacency when available; otherwise falls back to
        the module's mapping (equivalent to having reverse-engineered the
        whole bank up front, as the paper does).
        """
        discovered = self._adjacency.get(bank, {}).get(victim)
        if discovered:
            return discovered
        mapping = self.module.bank(bank).mapping
        return mapping.aggressors_for_victim(victim)

    # ------------------------------------------------------------------
    # RDT trial primitives
    # ------------------------------------------------------------------

    def condition_for(self, pattern: DataPattern, t_agg_on: float) -> Condition:
        """The device-visible condition for a trial issued right now."""
        effective_on = max(t_agg_on, self.module.timing.tRAS)
        return Condition(
            pattern=pattern.name,
            t_agg_on=effective_on,
            temperature=self.module.temperature,
        )

    def begin_measurement(
        self, bank: int, victim: int, pattern: DataPattern, t_agg_on: float
    ) -> None:
        """Tick the device fault clock: one new RDT measurement begins.

        This is the explicit simulation seam documented in DESIGN.md (trap
        dwell at the measurement-sweep timescale). Real hardware advances
        by itself; the simulated device is told when a sweep starts.
        """
        physical = self.module.bank(bank).mapping.to_physical(victim)
        self.module.fault_model.begin_measurement(
            bank, physical, self.condition_for(pattern, t_agg_on)
        )

    def trial_program(
        self,
        bank: int,
        victim: int,
        pattern: DataPattern,
        hammer_count: int,
        t_agg_on: float,
    ) -> Program:
        """The Algorithm 1 trial as a Bender program: initialize the
        Table 2 neighborhood, hammer double-sided, read the victim back
        under the tag ``"victim"``."""
        aggressors = self.aggressors_for(bank, victim)
        if not aggressors:
            raise MeasurementError(
                f"victim row {victim} has no physical neighbors to hammer"
            )
        builder = ProgramBuilder(f"trial-b{bank}-r{victim}")
        builder.initialize_neighborhood(
            bank,
            victim,
            aggressors,
            pattern,
            self.module.geometry.n_rows,
            radius=self.init_radius,
        )
        effective_on = max(t_agg_on, self.module.timing.tRAS)
        builder.double_sided_round(bank, aggressors, hammer_count, effective_on)
        builder.read_row(bank, victim, "victim")
        return builder.build()

    def compiled_trial(
        self, bank: int, victim: int, pattern: DataPattern, t_agg_on: float
    ) -> CompiledTrial:
        """The compiled replay plan for ``run_trial`` at these operands.

        The host keeps the last plan, keyed by (bank, victim, pattern,
        effective tAggOn, aggressor set, init radius): one compilation
        serves every hammer count of a measurement sweep. See
        :mod:`repro.bender.compiler`.
        """
        key = (
            bank, victim, pattern.name,
            max(t_agg_on, self.module.timing.tRAS),
            tuple(self.aggressors_for(bank, victim)), self.init_radius,
        )
        if key != self._trial_key:
            # The hammer count is a replay operand; compile a placeholder.
            self._trial_plan = compile_trial(
                self.trial_program(bank, victim, pattern, 1, t_agg_on),
                self.module,
            )
            self._trial_key = key
            obs.active().counter_add("bender.trial.compile")
        return self._trial_plan

    def run_trial(
        self,
        bank: int,
        victim: int,
        pattern: DataPattern,
        hammer_count: int,
        t_agg_on: float,
    ) -> List[int]:
        """One Algorithm 1 trial: initialize, hammer double-sided, compare.

        Replays the cached compiled plan of :meth:`trial_program` with
        ``hammer_count`` as its operand. Results and device state are
        bit-identical to interpreting the program and comparing the
        victim byte for byte (see :mod:`repro.bender.compiler`).

        Returns:
            Bit positions (within the module row) that flipped in the
            victim; empty when the row survived.
        """
        plan = self.compiled_trial(bank, victim, pattern, t_agg_on)
        return plan.replay(self.interpreter, hammer_count)

    def trial_time_ns(
        self, hammer_count: int, t_agg_on: float, aggressors: int = 2
    ) -> float:
        """Analytic lower bound on one trial's duration (Appendix A)."""
        timing = self.module.timing
        effective_on = max(t_agg_on, timing.tRAS)
        columns = self.module.geometry.columns_per_row
        init = (1 + 2 + 2 * (self.init_radius - 1)) * (
            timing.tRCD + (columns - 1) * timing.tCCD_L_WR + timing.tWR + timing.tRP
        )
        hammer = hammer_count * aggressors * (effective_on + timing.tRP)
        read = timing.tRCD + (columns - 1) * timing.tCCD_L + timing.tRTP + timing.tRP
        return init + hammer + read
