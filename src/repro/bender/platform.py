"""FPGA platform descriptors.

The paper runs DRAM Bender on three boards: AMD Alveo U200 (DDR4), AMD
Alveo U50 and Bittware XUPVVH (HBM2). These descriptors capture the
compatibility facts the testbed assembly checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.bender.temperature import PidTemperatureController
from repro.dram.module import DramModule
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FpgaBoard:
    """One supported FPGA development board."""

    name: str
    vendor: str
    supported_kinds: Tuple[str, ...]
    fabric_clock_mhz: float


ALVEO_U200 = FpgaBoard("Alveo U200", "AMD", ("DDR4",), 300.0)
ALVEO_U50 = FpgaBoard("Alveo U50", "AMD", ("HBM2",), 300.0)
XUPVVH = FpgaBoard("XUPVVH", "Bittware", ("HBM2",), 300.0)

ALL_BOARDS = (ALVEO_U200, ALVEO_U50, XUPVVH)


@dataclass
class Testbed:
    """A board + module (+ optional temperature control) assembly.

    HBM2 chips 1-3 in the paper have no heater setup and rely on a
    temperature-controlled room; ``controller=None`` models that case.
    """

    board: FpgaBoard
    module: DramModule
    controller: "PidTemperatureController | None" = None

    def __post_init__(self) -> None:
        if self.module.kind not in self.board.supported_kinds:
            raise ConfigurationError(
                f"{self.board.name} does not support {self.module.kind} devices"
            )


def board_for(module: DramModule) -> FpgaBoard:
    """Pick the paper's board for a module kind (U200 for DDR4, U50 HBM2)."""
    if module.kind == "DDR4":
        return ALVEO_U200
    return ALVEO_U50
