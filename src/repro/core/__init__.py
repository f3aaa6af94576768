"""The paper's core contribution: VRD measurement and analysis.

This package implements Algorithm 1 (RDT measurement), the statistical
machinery of Sec. 4 (histograms, run lengths, autocorrelation, chi-square
normality), the Monte Carlo minimum-RDT analyses of Sec. 5, and the
guardband/ECC experiments of Sec. 6.
"""

from repro.core.patterns import (
    ALL_PATTERNS,
    CHECKERED0,
    CHECKERED1,
    ROWSTRIPE0,
    ROWSTRIPE1,
    DataPattern,
)
from repro.core.config import TestConfig
from repro.core.series import RdtSeries
from repro.core.rdt import (
    FastRdtMeter,
    HammerSweep,
    RdtMeasurementResult,
    RdtMeter,
    find_victim,
)
from repro.core.montecarlo import (
    MinRdtEstimate,
    expected_normalized_min,
    min_rdt_analysis,
    probability_of_min,
)
from repro.core import stats
from repro.core.campaign import Campaign, CampaignResult, RowObservation
from repro.core.engine import CampaignCache
from repro.core.guardband import (
    GuardbandProbability,
    MarginBitflipResult,
    guardband_probability_analysis,
    margin_bitflip_experiment,
)

__all__ = [
    "DataPattern",
    "ROWSTRIPE0",
    "ROWSTRIPE1",
    "CHECKERED0",
    "CHECKERED1",
    "ALL_PATTERNS",
    "TestConfig",
    "RdtSeries",
    "HammerSweep",
    "RdtMeter",
    "FastRdtMeter",
    "RdtMeasurementResult",
    "find_victim",
    "stats",
    "MinRdtEstimate",
    "probability_of_min",
    "expected_normalized_min",
    "min_rdt_analysis",
    "Campaign",
    "CampaignResult",
    "RowObservation",
    "CampaignCache",
    "GuardbandProbability",
    "MarginBitflipResult",
    "guardband_probability_analysis",
    "margin_bitflip_experiment",
]
