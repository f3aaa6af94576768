"""Tests for Table 3's error-outcome probabilities."""

import numpy as np
import pytest

from repro.ecc.analysis import (
    PAPER_WORST_BER,
    _at_least,
    default_codec,
    monte_carlo_outcomes,
    outcome_probabilities,
    table3,
)
from repro.ecc.chipkill import ChipkillSsc
from repro.ecc.hamming import Sec72, Secded72
from repro.errors import EccError


def test_paper_worst_ber():
    # 5 unique flips in a 64 Kibit row.
    assert PAPER_WORST_BER == pytest.approx(7.6e-5, rel=0.01)


def test_table3_reproduces_paper_values():
    rows = table3()
    assert rows["SEC"].uncorrectable == pytest.approx(1.48e-5, rel=0.01)
    assert rows["SEC"].undetectable == pytest.approx(1.48e-5, rel=0.01)
    assert rows["SEC"].detectable_uncorrectable is None
    assert rows["SECDED"].uncorrectable == pytest.approx(1.48e-5, rel=0.01)
    assert rows["SECDED"].undetectable == pytest.approx(2.64e-8, rel=0.02)
    assert rows["SECDED"].detectable_uncorrectable == pytest.approx(
        1.48e-5, rel=0.01
    )
    assert rows["SSC"].uncorrectable == pytest.approx(5.66e-5, rel=0.01)
    assert rows["SSC"].undetectable == pytest.approx(5.66e-5, rel=0.01)
    assert rows["SSC"].detectable_uncorrectable is None


@pytest.mark.parametrize("n", [1, 18, 72])
@pytest.mark.parametrize("p", [0.0, 1e-300, 7.6e-5, 0.5, 1.0])
def test_at_least_equals_binom_sf(n, p):
    """The raw Boost kernel plus the support rule is ``binom.sf`` bit for
    bit, including at k <= 0 and k > n where the kernel alone gives NaN."""
    from scipy.stats import binom

    for k in (0, 1, 2, 3, n, n + 1, n + 2):
        assert _at_least(k, n, p) == float(binom.sf(k - 1, n, p)), k


def test_as_row_formats_na():
    row = outcome_probabilities("SEC", 1e-4).as_row()
    assert row["detectable_uncorrectable"] == "N/A"
    assert "e-" in row["uncorrectable"]


def test_unknown_scheme_rejected():
    with pytest.raises(EccError):
        outcome_probabilities("tmr", 1e-4)
    with pytest.raises(EccError):
        default_codec("tmr")
    with pytest.raises(EccError):
        outcome_probabilities("SEC", 1.5)


def test_default_codecs():
    assert isinstance(default_codec("sec"), Sec72)
    assert isinstance(default_codec("SECDED"), Secded72)
    assert isinstance(default_codec("chipkill"), ChipkillSsc)


@pytest.mark.parametrize("scheme", ["SEC", "SECDED", "SSC"])
def test_monte_carlo_consistent_with_closed_form(scheme):
    """Inject errors at an exaggerated BER (for statistics) and compare the
    real codec's uncorrectable rate with the analytic binomial value."""
    ber = 3e-3
    expected = outcome_probabilities(scheme, ber)
    outcome = monte_carlo_outcomes(
        default_codec(scheme), ber, trials=30_000, rng=np.random.default_rng(0)
    )
    assert outcome.uncorrectable == pytest.approx(
        expected.uncorrectable, rel=0.35, abs=5e-4
    )


def test_monte_carlo_secded_silent_rate_far_below_uncorrectable():
    outcome = monte_carlo_outcomes(
        Secded72(), 3e-3, trials=30_000, rng=np.random.default_rng(1)
    )
    assert outcome.undetectable < outcome.uncorrectable / 5
