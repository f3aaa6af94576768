"""vrd-repro: reproduction of "Variable Read Disturbance" (HPCA 2025).

The paper demonstrates that a DRAM row's read disturbance threshold (RDT)
changes significantly and unpredictably over time (*variable read
disturbance*, VRD), with consequences for the security of every
RDT-configured mitigation. This library rebuilds the paper's entire stack
against a trap-model DRAM device simulator:

* :mod:`repro.dram` — simulated DDR4/HBM2 devices with a charge-trap
  random-telegraph-noise read-disturbance model;
* :mod:`repro.chips` — the 21 DDR4 modules + 4 HBM2 chips of Tables 1/7;
* :mod:`repro.bender` — the DRAM-Bender-style testing infrastructure;
* :mod:`repro.core` — Algorithm 1, VRD statistics, Monte Carlo and
  guardband analyses (the paper's contribution);
* :mod:`repro.ecc` — SEC / SECDED / Chipkill-like codecs and Table 3;
* :mod:`repro.memsim` + :mod:`repro.mitigations` — the Fig. 14
  mitigation-overhead study;
* :mod:`repro.testtime` — Appendix A test-time/energy estimation.

Quickstart::

    from repro.chips import build_module
    from repro.core import FastRdtMeter, TestConfig, CHECKERED0

    module = build_module("M1")  # no refresh, TRR or on-die ECC (Sec. 3.1)
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    series = meter.measure_series(victim=100, config=config, n=1000)
    print(series.describe())   # min/max/CV: the RDT varies over time
"""

__version__ = "1.0.0"

from repro import errors
from repro.rng import DEFAULT_SEED, derive

__all__ = ["errors", "derive", "DEFAULT_SEED", "__version__"]
