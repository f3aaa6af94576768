"""Tests for Table 3's error-outcome probabilities."""

import numpy as np
import pytest

from repro import obs
from repro.ecc import analysis
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


@pytest.mark.parametrize("ber", [2.0, 1.5, -0.1, float("nan")])
def test_outcome_probabilities_rejects_ber_outside_unit_interval(ber):
    """The BER itself is checked, not only the SSC symbol rate derived from
    it (which folds 2.0 and 1.5 back into [0, 1])."""
    with pytest.raises(EccError, match=f"bit error rate {ber} outside"):
        outcome_probabilities("SSC", ber)


@pytest.mark.parametrize("ber", [float("nan"), 2.0, -1.0])
def test_monte_carlo_rejects_ber_outside_unit_interval(ber):
    with pytest.raises(EccError, match="bit error rate"):
        monte_carlo_outcomes(Sec72(), ber, trials=10)


@pytest.mark.parametrize("trials", [0, -5, 2.5, True])
def test_monte_carlo_rejects_bad_trial_count(trials):
    with pytest.raises(EccError, match="trials"):
        monte_carlo_outcomes(Sec72(), 1e-3, trials=trials)


def test_monte_carlo_accepts_numpy_trial_count():
    outcome = monte_carlo_outcomes(Sec72(), 1e-3, trials=np.int64(100))
    assert outcome.trials == 100


@pytest.mark.parametrize("code, ber", [(Sec72(), 0.0), (ChipkillSsc(), 0.05)])
def test_monte_carlo_decodes_only_rows_that_took_an_error(code, ber):
    """BER 0 decodes no row; at BER 0.05 nearly every SSC codeword (144
    bits) takes an error. The count matches one whole-chunk mask draw."""
    trials = 4096
    rng = np.random.default_rng(0)
    rng.integers(0, 2, (trials, code.k_bits), dtype=np.uint8)
    erred = np.count_nonzero(
        (rng.random((trials, code.n_bits)) < ber).any(axis=1)
    )
    with obs.tracing() as recorder:
        monte_carlo_outcomes(
            code, ber, trials=trials, rng=np.random.default_rng(0)
        )
    decoded = recorder.snapshot()["counters"][
        f"ecc.{type(code).__name__}.decoded"
    ]
    assert decoded == erred
    assert (decoded == 0) if ber == 0.0 else (decoded > 0.99 * trials)


def _traced_peak_mb(trials: int) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        monte_carlo_outcomes(
            ChipkillSsc(), 3e-3, trials=trials, rng=np.random.default_rng(0)
        )
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_bounded_by_chunk_not_trials():
    """Transient memory is one chunk's data draw plus one fixed block of
    uniforms, whatever the trial count."""
    full_chunk = _traced_peak_mb(analysis._MC_CHUNK)
    many_chunks = _traced_peak_mb(200_000)
    assert many_chunks < 16.0
    assert many_chunks < full_chunk + 1.0
