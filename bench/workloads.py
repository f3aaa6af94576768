"""The benchmark's four workloads: slices of reproducing the paper.

Each workload is a ``setup(seed)`` that does what a user pays once per
process (imports, building modules, opening the result store) and a
``run(state, ops)`` that does one pass of the paper's experiments. Every
unit of work goes through :meth:`Ops.call`, one *operation* each: its
output is digested and checked after the pass, and a failing operation is
counted, never fatal.

Each operation keeps the figure suite's own size (100k-measurement
series, ``rows_per_block=5`` x 1000-measurement campaigns, 2000 trials,
2000 attack windows). A pass runs fewer operations than the whole suite so
that one pass takes a few seconds and a run can take the median of
several fresh-process passes; README.md lists what each pass covers.

``seed`` is added to every seed the paper's code uses (module build
seeds, attack, sweep and Monte Carlo RNG seeds), so seed 0 reproduces the
figure suite's numbers.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import struct
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis import figures
from repro.chips import build_module, spec
from repro.core import campaign as campaign_mod
from repro.core import guardband, montecarlo, stats
from repro.core.config import STANDARD_TEMPERATURES, TestConfig, standard_t_agg_on_values
from repro.core.engine import CampaignCache
from repro.core.patterns import CHECKERED0, CHECKERED1
from repro.dram.timing import DDR5_8800
from repro.ecc import analysis as ecc_analysis
from repro.errors import MeasurementError
from repro.memsim import sweep as memsim_sweep
from repro.rng import DEFAULT_SEED
from repro.security import attack as security_attack
from repro.testtime import schedule as testtime_schedule

Check = Callable[[object], List[str]]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def _encode(value, out: list) -> None:
    """Append a canonical, type-tagged byte encoding of ``value``."""
    if value is None:
        out.append(b"N")
    elif isinstance(value, (bool, np.bool_)):
        out.append(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        out.append(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        out.append(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(b"s%d:" % len(encoded) + encoded)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        out.append(
            b"a" + array.dtype.str.encode() + repr(array.shape).encode()
        )
        out.append(array.tobytes())
    elif isinstance(value, enum.Enum):
        out.append(b"e")
        _encode(type(value).__name__ + "." + value.name, out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(b"d")
        _encode(type(value).__name__, out)
        for item in dataclasses.fields(value):
            _encode(item.name, out)
            _encode(getattr(value, item.name), out)
        out.append(b"e")
    elif isinstance(value, dict):
        out.append(b"m%d:" % len(value))
        for key in sorted(value, key=digest):
            _encode(key, out)
            _encode(value[key], out)
    elif isinstance(value, (set, frozenset)):
        out.append(b"S%d:" % len(value))
        for item in sorted(value, key=digest):
            _encode(item, out)
    elif isinstance(value, (list, tuple)):
        out.append(b"l%d:" % len(value))
        for item in value:
            _encode(item, out)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical encoding: equal digests mean
    bit-identical outputs (floats compare by their IEEE-754 bytes)."""
    out: list = []
    _encode(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


class Ops:
    """Runs and records a pass's operations.

    Checks run after the timed pass (:meth:`results`), so they cost the
    measured program nothing.
    """

    def __init__(self) -> None:
        self._records: list = []
        #: Simulated work done, taken from outputs (``work.*`` metrics).
        self.work: Dict[str, float] = {}

    def call(self, name: str, check: Optional[Check], fn, *args, **kwargs):
        """Run one operation; on an exception record it and return None."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the pass
            self._records.append((name, None, None, f"{type(exc).__name__}: {exc}"))
            return None
        self._records.append((name, value, check, None))
        return value

    def fail(self, name: str, problem: str) -> None:
        """Record a failed operation the workload itself detected."""
        self._records.append((name, None, None, problem))

    def count(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0) + amount

    def results(self) -> List[dict]:
        """``[{name, digest, problems}]`` in operation order."""
        output = []
        for name, value, check, error in self._records:
            if error is not None:
                output.append({"name": name, "digest": None, "problems": [error]})
                continue
            try:
                problems = list(check(value)) if check else []
                value_digest = digest(value)
            except Exception as exc:  # a broken check is a failed operation
                problems, value_digest = [f"check raised {exc!r}"], None
            output.append(
                {"name": name, "digest": value_digest, "problems": problems}
            )
        return output


def _expect(condition: bool, message: str, problems: List[str]) -> None:
    if not condition:
        problems.append(message)


def _in_unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# foundational: Sec. 4 (Figs. 1, 3-6)
# ----------------------------------------------------------------------

#: One device per vendor (SK Hynix, Micron, Samsung) and one HBM2 chip;
#: Fig. 1 plots Chip1 and Fig. 6 plots M1.
FOUNDATIONAL_DEVICES = ("H1", "M1", "S0", "Chip1")
FOUNDATIONAL_N = 100_000
FOUNDATIONAL_LATENT_N = 5_000


def _foundational_device(module_id: str, seed: int) -> dict:
    series = figures.foundational_victim_series(module_id, FOUNDATIONAL_N, seed=seed)
    latent = figures.foundational_latent_series(
        module_id, FOUNDATIONAL_LATENT_N, seed=seed
    )
    valid = series.valid
    counts, edges = stats.histogram_unique_bins(valid)
    try:
        chi_square = stats.chi_square_normal_fit(latent, trim_sigmas=3.5)
    except MeasurementError:
        chi_square = None
    return {
        "series": series,
        "latent": latent,
        "box": stats.box_stats(valid),
        "histogram": (counts, edges),
        "chi_square": chi_square,
        "run_lengths": stats.run_lengths(valid),
        "acf": stats.autocorrelation(valid, max_lag=50),
        "ljung_box": stats.ljung_box_test(valid, lags=20),
    }


def _check_foundational(out: dict) -> List[str]:
    problems: List[str] = []
    series, valid = out["series"], out["series"].valid
    _expect(len(series) == FOUNDATIONAL_N, "series length", problems)
    _expect(out["latent"].size == FOUNDATIONAL_LATENT_N, "latent length", problems)
    _expect(out["run_lengths"].sum() == valid.size, "run lengths sum", problems)
    _expect(out["histogram"][0].sum() == valid.size, "histogram total", problems)
    box = out["box"]
    _expect(box.minimum <= box.median <= box.maximum, "box order", problems)
    _expect(math.isclose(out["acf"][0], 1.0), "acf lag 0", problems)
    _expect(_in_unit(out["ljung_box"][1]), "ljung-box p range", problems)
    if out["chi_square"] is not None:
        _expect(_in_unit(out["chi_square"][1]), "chi-square p range", problems)
    # Findings 1-2: every tested row's RDT varies over several states.
    _expect(series.max_to_min_ratio > 1.0, "Finding 1: RDT varies", problems)
    _expect(series.n_unique >= 3, "Finding 2: multiple RDT states", problems)
    return problems


def setup_foundational(seed: int) -> dict:
    return {"seed": DEFAULT_SEED + seed}


def run_foundational(state: dict, ops: Ops) -> None:
    for module_id in FOUNDATIONAL_DEVICES:
        out = ops.call(
            f"device.{module_id}", _check_foundational,
            _foundational_device, module_id, state["seed"],
        )
        if out is not None:
            ops.count("measurements", len(out["series"]))


# ----------------------------------------------------------------------
# campaigns: Sec. 5 (Figs. 7-13, 15, 25, Table 7)
# ----------------------------------------------------------------------

#: ``(module, axis)`` recipes of the figure suite's ``module_campaign``
#: calls: the reference axis (Figs. 7-10, 13, 25, Table 7; one HBM2 chip
#: among them), the tAggOn axis (Fig. 11) and the temperature axis
#: (Fig. 12).
CAMPAIGN_CALLS = (
    ("M1", "reference"),
    ("S0", "reference"),
    ("Chip0", "reference"),
    ("H1", "taggon"),
    ("M0", "temperature"),
)
CAMPAIGN_ROWS_PER_BLOCK = 5
CAMPAIGN_MEASUREMENTS = 1000
WARM_PASSES = 3
GUARDBAND_MARGINS = (0.10, 0.20, 0.30, 0.40, 0.50)
GUARDBAND_N_VALUES = (1, 3, 5, 10, 50, 500)


class _CountingCache(CampaignCache):
    """The store-backed cache, counting loads that hit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loads = 0
        self.hits = 0

    def load(self, key):
        result = super().load(key)
        self.loads += 1
        self.hits += result is not None
        return result


def _campaign(module_id: str, axis: str, seed: int, cache: CampaignCache):
    axes = {}
    if axis == "taggon":
        axes["t_agg_on_values"] = standard_t_agg_on_values(spec(module_id).timing)
    elif axis == "temperature":
        axes["temperatures"] = STANDARD_TEMPERATURES
    return figures.module_campaign(
        module_id,
        rows_per_block=CAMPAIGN_ROWS_PER_BLOCK,
        n_measurements=CAMPAIGN_MEASUREMENTS,
        seed=seed,
        cache=cache,
        **axes,
    )


def _check_campaign(result) -> List[str]:
    problems: List[str] = []
    rows = {(obs.bank, obs.row) for obs in result.observations}
    configs = {obs.config for obs in result.observations}
    _expect(len(rows) == 3 * CAMPAIGN_ROWS_PER_BLOCK, "selected rows", problems)
    _expect(
        len(result.observations) == len(rows) * len(configs),
        "observations = rows x configs", problems,
    )
    _expect(
        all(len(obs.series) == CAMPAIGN_MEASUREMENTS for obs in result.observations),
        "series length", problems,
    )
    # Finding 5: every row varies under some configuration.
    _expect(
        all(cv > 0 for cv in result.max_cv_per_row().values()),
        "Finding 5: every row varies", problems,
    )
    return problems


def _check_min_rdt(estimates) -> List[str]:
    problems: List[str] = []
    for per_row in estimates:
        for estimate in per_row.values():
            _expect(_in_unit(estimate.probability_of_min), "P(min) range", problems)
            _expect(
                estimate.expected_normalized_min >= 1.0 - 1e-9, "E[norm min] >= 1", problems
            )
    return problems


def _check_guardband(cells) -> List[str]:
    problems: List[str] = []
    _expect(
        len(cells) == len(GUARDBAND_MARGINS) * len(GUARDBAND_N_VALUES),
        "cell count", problems,
    )
    for cell in cells:
        _expect(
            0.0 <= cell.min_probability <= cell.mean_probability <= 1.0,
            "probability order", problems,
        )
    return problems


def setup_campaigns(seed: int) -> dict:
    return {"seed": DEFAULT_SEED + seed, "cache": _CountingCache.resolve()}


def run_campaigns(state: dict, ops: Ops) -> None:
    cache = state["cache"]
    if cache is None:
        ops.fail("store", "no result store (VRD_STORE_PATH unset or empty)")
        return
    cold = {}
    for module_id, axis in CAMPAIGN_CALLS:
        name = f"campaign.{module_id}.{axis}"
        cold[name] = ops.call(
            name, _check_campaign, _campaign, module_id, axis, state["seed"], cache
        )
        if cold[name] is not None:
            ops.count("measurements", sum(len(o.series) for o in cold[name].observations))
    reference = [
        obs.series
        for (module_id, axis), result in zip(CAMPAIGN_CALLS, cold.values())
        if axis == "reference" and result is not None
        for obs in result.observations
    ]
    ops.call(
        "fig08.min_rdt", _check_min_rdt,
        lambda: [montecarlo.min_rdt_analysis(series) for series in reference],
    )
    ops.call(
        "fig15.guardband", _check_guardband,
        guardband.guardband_probability_analysis,
        reference, margins=GUARDBAND_MARGINS, n_values=GUARDBAND_N_VALUES,
    )
    cold_digests = {name: digest(result) for name, result in cold.items()}
    loads, hits = cache.loads, cache.hits
    for warm in range(WARM_PASSES):
        for module_id, axis in CAMPAIGN_CALLS:
            name = f"campaign.{module_id}.{axis}"

            def same_as_cold(result, name=name) -> List[str]:
                return [] if digest(result) == cold_digests[name] else [
                    "warm result differs from the cold pass"
                ]

            ops.call(
                f"warm{warm}.{module_id}.{axis}", same_as_cold,
                _campaign, module_id, axis, state["seed"], cache,
            )
    ops.count("cache_warm_loads", cache.loads - loads)
    ops.count("cache_warm_hits", cache.hits - hits)
    if cache.hits - hits != cache.loads - loads:
        ops.fail("warm.hit_ratio", "a warm pass missed the store")


# ----------------------------------------------------------------------
# implications: Secs. 6-7 (Figs. 14, 16, Tables 3-6)
# ----------------------------------------------------------------------

MARGIN_MODULES = ("M1",)
MARGINS = (0.10, 0.20, 0.30, 0.40, 0.50)
MARGIN_TRIALS = 2000
SWEEP_MITIGATIONS = ("Graphene", "PRAC", "PARA", "MINT")
SWEEP_RDTS = (1024.0, 128.0)
SWEEP_MARGINS = (0.0, 0.10, 0.25, 0.50)
SWEEP_MIXES = 3
ECC_SCHEMES = ("SEC", "SECDED", "SSC")
ECC_BER = 3e-3
ECC_TRIALS = 20_000


def _check_margin(results) -> List[str]:
    problems: List[str] = []
    _expect(len(results) == len(MARGINS), "one result per margin", problems)
    for result in results:
        _expect(result.trials == MARGIN_TRIALS, "trial count", problems)
        _expect(
            _in_unit(result.flipping_trials / result.trials), "flip rate range", problems
        )
    return problems


def _check_sweep(result) -> List[str]:
    problems: List[str] = []
    table = result.table()
    cells = len(SWEEP_MITIGATIONS) * len(SWEEP_RDTS) * len(SWEEP_MARGINS)
    _expect(len(table) == cells, "cell count", problems)
    _expect(
        all(len(mixes) == SWEEP_MIXES for mixes in result.per_mix.values()),
        "mixes per cell", problems,
    )
    _expect(all(0.0 < v <= 1.05 for v in table.values()), "speedup range", problems)
    # Fig. 14: guardbands never help, and at RDT 128 the deterministic
    # tracker stays ahead of the probabilistic one.
    for name in SWEEP_MITIGATIONS:
        _expect(
            table[(128.0, 0.50, name)] <= table[(128.0, 0.0, name)] + 0.01,
            f"{name}: guardband costs performance", problems,
        )
    _expect(
        table[(128.0, 0.50, "Graphene")] > table[(128.0, 0.50, "PARA")],
        "Graphene beats PARA at RDT 128", problems,
    )
    return problems


def _check_ecc_mc(pair) -> List[str]:
    expected, outcome = pair
    problems: List[str] = []
    for rate in (outcome.uncorrectable, outcome.undetectable, outcome.detected):
        _expect(_in_unit(rate), "rate range", problems)
    _expect(outcome.undetectable <= outcome.uncorrectable, "undetectable <= uncorrectable", problems)
    _expect(
        math.isclose(outcome.uncorrectable, expected.uncorrectable, rel_tol=0.5),
        "Monte Carlo agrees with the closed form", problems,
    )
    return problems


def _check_table3(rows) -> List[str]:
    problems: List[str] = []
    _expect(math.isclose(rows["SEC"].uncorrectable, 1.48e-5, rel_tol=0.01), "SEC", problems)
    _expect(math.isclose(rows["SSC"].uncorrectable, 5.66e-5, rel_tol=0.01), "SSC", problems)
    return problems


def _check_schedules(pair) -> List[str]:
    single, multi = pair
    problems: List[str] = []
    counts = single.command_counts()
    _expect(counts["WRITE"] == 3 * 128, "Table 4 writes", problems)
    _expect(counts["ACT+PRE"] == 2000, "Table 4 activations", problems)
    _expect(multi.total_ns < 4 * single.total_ns, "Table 5 overlap", problems)
    return problems


def _ecc_monte_carlo(scheme: str, seed: int):
    expected = ecc_analysis.outcome_probabilities(scheme, ECC_BER)
    outcome = ecc_analysis.monte_carlo_outcomes(
        ecc_analysis.default_codec(scheme), ECC_BER, trials=ECC_TRIALS,
        rng=np.random.default_rng(seed),
    )
    return expected, outcome


def _schedules():
    return (
        testtime_schedule.single_bank_schedule(
            hammer_count=1000, t_agg_on=DDR5_8800.tRAS
        ),
        testtime_schedule.multi_bank_schedule(
            hammer_count=1000, t_agg_on=DDR5_8800.tRAS, n_banks=16
        ),
    )


def setup_implications(seed: int) -> dict:
    modules = {}
    for module_id in MARGIN_MODULES:
        module = build_module(module_id, seed=DEFAULT_SEED + seed)
        module.disable_interference_sources()
        modules[module_id] = module
    return {"seed": seed, "modules": modules}


def run_implications(state: dict, ops: Ops) -> None:
    seed = state["seed"]
    for module_id, module in state["modules"].items():
        config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
        rows = ops.call(
            f"fig16.{module_id}.rows", None,
            campaign_mod.select_vulnerable_rows,
            module, config, block_rows=128, per_block=4, probe_repeats=5,
        ) or []
        for pattern in (CHECKERED0, CHECKERED1):
            pattern_config = TestConfig(pattern, t_agg_on_ns=module.timing.tRAS)
            for row in rows:
                results = ops.call(
                    f"fig16.{module_id}.{pattern.name}.{row}", _check_margin,
                    guardband.margin_bitflip_experiment,
                    module, row, pattern_config, margins=MARGINS, trials=MARGIN_TRIALS,
                )
                if results is not None:
                    ops.count("trials", sum(r.trials for r in results))
    sweep_spec = memsim_sweep.SweepSpec(
        mitigations=SWEEP_MITIGATIONS, rdts=SWEEP_RDTS, margins=SWEEP_MARGINS,
        n_mixes=SWEEP_MIXES, seed=11 + seed,
    )
    result = ops.call(
        "fig14.sweep", _check_sweep, memsim_sweep.run_sweep, sweep_spec,
        n_jobs=1, cache=None,
    )
    if result is not None:
        ops.count("sweep_cells", len(result.per_mix))
    ops.call(
        "table3.analytic", _check_table3,
        ecc_analysis.table3, ecc_analysis.PAPER_WORST_BER,
    )
    for scheme in ECC_SCHEMES:
        ops.call(f"table3.{scheme}", _check_ecc_mc, _ecc_monte_carlo, scheme, seed)
        ops.count("trials", ECC_TRIALS)
    ops.call("tables456.schedules", _check_schedules, _schedules)


# ----------------------------------------------------------------------
# attack: the extension's security matrix
# ----------------------------------------------------------------------

ATTACK_KINDS = ("graphene", "prac", "para", "mint")
ATTACK_SCENARIOS = ((5, 0.0), (5, 0.10), (5, 0.50), (1000, 0.10))
ATTACK_VICTIMS = tuple(range(80, 96))
ATTACK_WINDOWS = 2000
#: Refresh windows one pass simulates. An attack ends at its first flip,
#: so a fixed victim list does seed-dependent work (about +-10% for two
#: victims); a fixed window budget keeps every seed's pass the same size.
ATTACK_WINDOW_BUDGET = 60_000


def _check_attack(outcome, windows: int) -> List[str]:
    problems: List[str] = []
    _expect(1 <= outcome.windows <= windows, "window count", problems)
    _expect(outcome.threshold >= 1.0, "threshold", problems)
    if outcome.flipped:
        _expect(outcome.first_flip_window == outcome.windows - 1, "flip window", problems)
        _expect(outcome.min_exposure_margin <= 0.0, "flip margin", problems)
    else:
        _expect(outcome.first_flip_window is None, "no flip window", problems)
        _expect(outcome.windows == windows, "held every window", problems)
    return problems


def setup_attack(seed: int) -> dict:
    # One module shared by every call: each victim's VRD chain carries
    # over from one call to the next, as in the figure suite.
    module = build_module("M1", seed=21 + seed)
    module.disable_interference_sources()
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    return {"seed": seed, "module": module, "config": config}


def run_attack(state: dict, ops: Ops) -> None:
    # Victim-major order: each victim's calls keep the figure suite's
    # (kind, scenario) order, so every call but a budget-truncated last
    # one returns what the suite's call returns. A truncated call is the
    # suite's call cut short: its windows are a prefix of the full run's.
    remaining = ATTACK_WINDOW_BUDGET
    for victim in ATTACK_VICTIMS:
        for kind in ATTACK_KINDS:
            for n, margin in ATTACK_SCENARIOS:
                if remaining <= 0:
                    return
                windows = min(ATTACK_WINDOWS, remaining)
                outcome = ops.call(
                    f"{victim}.{kind}.{n}.{margin}",
                    lambda outcome, windows=windows: _check_attack(outcome, windows),
                    security_attack.profile_and_attack,
                    state["module"], victim, state["config"], kind,
                    profile_measurements=n, margin=margin,
                    windows=windows, seed=victim + state["seed"],
                )
                remaining -= windows if outcome is None else outcome.windows
                if outcome is not None:
                    ops.count("windows", outcome.windows)
                    ops.count("measurements", n)


#: name -> (setup, run), in the order runs interleave them.
WORKLOADS = {
    "foundational": (setup_foundational, run_foundational),
    "campaigns": (setup_campaigns, run_campaigns),
    "implications": (setup_implications, run_implications),
    "attack": (setup_attack, run_attack),
}
