"""DRAM-Bender-like testing infrastructure.

The paper builds on DRAM Bender (an open-source FPGA-based DRAM testing
framework derived from SoftMC): a host composes *test programs* from raw
DRAM commands, an FPGA executes them with deterministic timing, and the host
reads results back. This package reproduces that stack against the simulated
modules of :mod:`repro.dram`:

* :mod:`repro.bender.isa` / :mod:`repro.bender.program` — the test-program
  instruction set and builder;
* :mod:`repro.bender.interpreter` — executes programs with tight JEDEC
  scheduling and full command/time accounting; the specification every
  trial replay is held to;
* :mod:`repro.bender.compiler` — lowers the Algorithm 1 trial program to a
  cached replay plan with the hammer count as an operand, bit-identical to
  interpreting it (the throughput real DRAM-Bender deployments get from
  FPGA-side command streams); every ``DramBender.run_trial`` replays one;
* :mod:`repro.bender.temperature` — the heater-pad + PID controller loop
  (MaxWell FT200-style, +/-0.5 C precision);
* :mod:`repro.bender.host` — the high-level host API used by the
  characterization methodology (initialize / hammer / compare, adjacency
  reverse engineering, temperature control);
* :mod:`repro.bender.platform` — FPGA board descriptors for the three
  boards the paper uses.
"""

from repro.bender.isa import (
    Act,
    Hammer,
    Instruction,
    Pre,
    ReadRow,
    Wait,
    WriteRow,
)
from repro.bender.program import Program, ProgramBuilder
from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.bender.compiler import CompiledTrial, compile_trial
from repro.bender.temperature import PidTemperatureController
from repro.bender.host import DramBender
from repro.bender.platform import ALVEO_U200, ALVEO_U50, XUPVVH, FpgaBoard, Testbed

__all__ = [
    "Instruction",
    "Act",
    "Pre",
    "WriteRow",
    "ReadRow",
    "Wait",
    "Hammer",
    "Program",
    "ProgramBuilder",
    "Interpreter",
    "ExecutionResult",
    "CompiledTrial",
    "compile_trial",
    "PidTemperatureController",
    "DramBender",
    "FpgaBoard",
    "Testbed",
    "ALVEO_U200",
    "ALVEO_U50",
    "XUPVVH",
]
