"""Integration: retention decay is the one hazard the methodology must
still respect.

The simulated device has no refresh, TRR or on-die ECC (the paper's
Sec. 3.1 switches them off), so an experiment that overstays the
retention window sees retention flips it cannot tell from disturbance
flips. These tests show that hazard end to end on the simulated testbed.
"""

import numpy as np

from tests.conftest import make_module
from tests.dram.test_bank import write_full


def test_overstaying_retention_window_corrupts_reads():
    """A victim left unrefreshed far beyond its retention horizon reads
    back with retention flips — indistinguishable from disturbance flips
    unless the experiment stays within tREFW."""
    module = make_module(seed=5)
    write_full(module, 0, 50, 0x55, 1000.0)
    horizon = module.retention.vrt_cell(0, 50).high_retention_ns
    late = 1000.0 + horizon * 5.0
    module.activate(0, 50, late)
    data = module.read_row(0, 50, late + module.timing.tRCD)
    assert np.any(data != 0x55)


def test_reading_within_window_is_clean():
    module = make_module(seed=5)
    end = write_full(module, 0, 50, 0x55, 1000.0)
    module.activate(0, 50, end)
    data = module.read_row(0, 50, end + module.timing.tRCD)
    assert np.all(data == 0x55)
