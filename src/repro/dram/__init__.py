"""Simulated DRAM devices.

This package is the *substrate substitution* for the paper's 160 DDR4 and 4
HBM2 chips: behavioral DRAM modules whose read-disturbance error mechanism is
a charge-trap random-telegraph-noise model (see ``DESIGN.md`` §1). The public
surface mirrors what a real testbed sees — banks, rows, commands, timings —
plus the fault model that generates variable read disturbance.
"""

from repro.dram.geometry import DramGeometry
from repro.dram.timing import (
    DDR4_2400,
    DDR4_2666,
    DDR4_2933,
    DDR4_3200,
    DDR5_8800,
    HBM2_2000,
    TimingParams,
)
from repro.dram.commands import Command, CommandKind
from repro.dram.mapping import (
    MirroredFoldMapping,
    RowMapping,
    ScrambledBlockMapping,
    SequentialMapping,
    reverse_engineer_adjacency,
)
from repro.dram.cells import CellLayout, CellLayoutKind
from repro.dram.traps import Trap, sample_occupancy_series
from repro.dram.faults import (
    Condition,
    ModuleFaultModel,
    RowVrdProcess,
    VrdModelParams,
)
from repro.dram.bank import Bank
from repro.dram.module import DramModule

__all__ = [
    "DramGeometry",
    "TimingParams",
    "DDR4_2400",
    "DDR4_2666",
    "DDR4_2933",
    "DDR4_3200",
    "DDR5_8800",
    "HBM2_2000",
    "Command",
    "CommandKind",
    "RowMapping",
    "SequentialMapping",
    "MirroredFoldMapping",
    "ScrambledBlockMapping",
    "reverse_engineer_adjacency",
    "CellLayout",
    "CellLayoutKind",
    "Trap",
    "sample_occupancy_series",
    "Condition",
    "VrdModelParams",
    "RowVrdProcess",
    "ModuleFaultModel",
    "Bank",
    "DramModule",
]
