"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points onto the library's main experiments:

* ``devices`` — list the catalog (Table 1);
* ``measure`` — RDT series statistics for one row of one device;
* ``profile`` — a Sec. 5-style characterization summary for one device;
* ``table3`` — the ECC outcome probabilities at a chosen bit error rate;
* ``testtime`` — Appendix A testing-cost headline scenarios;
* ``attack`` — profile-and-attack security check for one mitigation;
* ``fig14`` — mitigation-overhead sweep (cached);
* ``store`` — result-store maintenance (``stats``, ``prune``);
* ``report`` — instrumented smoke workload + observability run report.

The cost of reproducing the paper is measured by ``bench/run.py``
(workloads and bounds in ``BENCHMARK.json``).

A library error (any :class:`repro.errors.ReproError`) prints one line,
``repro <command>: <message>``, to stderr and exits 2.

``measure`` and ``profile`` accept ``--adaptive`` (plus ``--budget``,
``--confidence``, ``--precision``): the run switches to the DiscoRD-style
adaptive schedule of :mod:`repro.core.adaptive` — coarse-to-fine hammer
search with sequential early stopping — and reports threshold estimates
with confidence intervals and trials saved instead of full series.

Long-running commands (``measure``, ``profile``, ``fig14``) accept
``--trace`` / ``--trace-out FILE``: the command runs under a
:mod:`repro.obs` recorder and the run report is printed to stderr (or
saved as JSON) after the normal output. ``VRD_TRACE=1`` achieves the same
globally. Tracing never touches the seeded RNG streams, so every
scientific output is bit-identical with tracing on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__


def _add_trace_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace", action="store_true",
        help="collect spans/metrics and print a run report to stderr",
    )
    command.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run report as JSON to FILE (implies --trace)",
    )


def _add_adaptive_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--adaptive", action="store_true",
        help="DiscoRD-style adaptive schedule: coarse-to-fine search with "
             "sequential early stopping instead of exhaustive series",
    )
    command.add_argument(
        "--budget", type=int, default=None, metavar="TRIALS",
        help="total trial budget for the adaptive run (default: unlimited)",
    )
    command.add_argument(
        "--confidence", type=float, default=0.99,
        help="confidence level of adaptive per-row intervals (default 0.99)",
    )
    command.add_argument(
        "--precision", type=float, default=0.05,
        help="adaptive stopping target: CI half-width as a fraction of the "
             "running mean (default 0.05)",
    )


def _adaptive_config(args: argparse.Namespace):
    from repro.core.adaptive import AdaptiveConfig

    return AdaptiveConfig(
        confidence=args.confidence,
        rel_precision=args.precision,
        max_measurements=args.measurements,
        budget=args.budget,
    )


#: Longest series ``measure`` accepts: about 6 s and 220 MB peak RSS on
#: a 2-core x86 host (the output plus the one temporary of ``np.std``).
MEASURE_MAX_N = 10_000_000

#: Longest series ``profile`` accepts: about 30 s and 390 MB peak RSS at
#: the default ``--rows-per-block 3`` (36 series) on the same host.
PROFILE_MAX_N = 1_000_000

#: Most rows ``profile`` selects per block: the selection block
#: (``module_campaign``'s ``select_block_rows``).
PROFILE_MAX_ROWS_PER_BLOCK = 256

#: Largest ``--rows-per-block`` x ``-n`` product ``profile`` accepts: the
#: ``-n`` cap at the default 3 rows per block.
PROFILE_MAX_ROW_MEASUREMENTS = 3 * PROFILE_MAX_N

#: Most refresh windows ``attack`` simulates: about 12 s and 64 MB peak
#: RSS (about 1.2 us per window, a victim that survives all of them) on a
#: 2-core x86 host.
ATTACK_MAX_WINDOWS = 10_000_000


def _check_range(flag: str, value: int, maximum: int, error: type) -> None:
    """Raise ``error`` for a ``value`` outside ``1..maximum``, before any
    work."""
    if not 1 <= value <= maximum:
        raise error(f"{flag} must be between 1 and {maximum:,}, got {value:,}")


def _check_measurements(n: int, maximum: int) -> None:
    """Reject a ``-n`` outside the documented range, before any work."""
    from repro.errors import MeasurementError

    _check_range("-n", n, maximum, MeasurementError)


def _check_profile_size(rows_per_block: int, n: int) -> None:
    """Reject a ``profile`` outside its documented size, before any work."""
    from repro.errors import MeasurementError

    _check_measurements(n, PROFILE_MAX_N)
    _check_range(
        "--rows-per-block", rows_per_block, PROFILE_MAX_ROWS_PER_BLOCK,
        MeasurementError,
    )
    if rows_per_block * n > PROFILE_MAX_ROW_MEASUREMENTS:
        raise MeasurementError(
            f"--rows-per-block x -n must be at most "
            f"{PROFILE_MAX_ROW_MEASUREMENTS:,}, got {rows_per_block} x "
            f"{n:,}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Variable Read Disturbance (HPCA 2025) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"vrd-repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the tested-device catalog (Table 1)")

    measure = sub.add_parser(
        "measure", help="measure one row's RDT series and print statistics"
    )
    measure.add_argument("module", help="catalog device id, e.g. M1 or Chip0")
    measure.add_argument("--row", type=int, default=100)
    measure.add_argument(
        "-n", "--measurements", type=int, default=1000,
        help=f"series length, 1 to {MEASURE_MAX_N:,} (default 1000)",
    )
    measure.add_argument("--pattern", default="checkered0")
    measure.add_argument("--temperature", type=float, default=50.0)
    measure.add_argument("--voltage", type=float, default=2.5)
    measure.add_argument("--seed", type=int, default=None)
    _add_adaptive_flags(measure)
    _add_trace_flags(measure)

    profile = sub.add_parser(
        "profile", help="characterize a device's VRD profile (Sec. 5)"
    )
    profile.add_argument("module")
    profile.add_argument(
        "--rows-per-block", type=int, default=3,
        help="rows selected per selection block, 1 to "
             f"{PROFILE_MAX_ROWS_PER_BLOCK} (the block size), with "
             "rows-per-block x -n at most "
             f"{PROFILE_MAX_ROW_MEASUREMENTS:,} (default 3)",
    )
    profile.add_argument(
        "-n", "--measurements", type=int, default=500,
        help=f"series length per row and condition, 1 to {PROFILE_MAX_N:,} "
             "(default 500)",
    )
    profile.add_argument("--seed", type=int, default=None)
    profile.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory; the store is DIR/results.sqlite "
             "(default: $VRD_STORE_PATH, else .vrd-cache/results.sqlite)",
    )
    profile.add_argument(
        "--no-cache", action="store_true",
        help="recompute even if the campaign is cached",
    )
    profile.add_argument(
        "-o", "--output", default=None,
        help="save the campaign result to this JSON file",
    )
    _add_adaptive_flags(profile)
    _add_trace_flags(profile)

    table3_cmd = sub.add_parser(
        "table3", help="ECC outcome probabilities (Table 3)"
    )
    table3_cmd.add_argument(
        "--ber", type=float, default=None,
        help="bit error rate (default: the paper's 7.6e-5)",
    )

    sub.add_parser(
        "testtime", help="Appendix A testing-cost headline scenarios"
    )

    attack = sub.add_parser(
        "attack", help="profile-and-attack security check (extension)"
    )
    attack.add_argument("module")
    attack.add_argument(
        "--kind", default="prac",
        choices=["graphene", "prac", "para", "mint", "none"],
    )
    attack.add_argument("--row", type=int, default=100)
    attack.add_argument(
        "--profile-n", type=int, default=5,
        help=f"profiling measurements, 1 to {MEASURE_MAX_N:,} (default 5)",
    )
    attack.add_argument(
        "--margin", type=float, default=0.0,
        help="guardband below the profiled minimum RDT, as a fraction in "
             "[0, 1) (default 0)",
    )
    attack.add_argument(
        "--windows", type=int, default=2000,
        help=f"refresh windows to attack, 1 to {ATTACK_MAX_WINDOWS:,} "
             "(default 2000)",
    )

    analyze = sub.add_parser(
        "analyze", help="analyze a saved campaign JSON (see profile -o)"
    )
    analyze.add_argument("file", help="campaign JSON written by 'profile -o'")

    fig14 = sub.add_parser(
        "fig14", help="mitigation-overhead sweep (Fig. 14, Sec. 6.3)"
    )
    fig14.add_argument(
        "--mixes", type=int, default=5,
        help="number of four-core workload mixes (paper: 15; default 5)",
    )
    fig14.add_argument(
        "--window", type=float, default=60_000.0,
        help="simulated window per run in ns (default 60000)",
    )
    fig14.add_argument(
        "--cache-dir", default=None,
        help="sweep cache directory; the store is DIR/results.sqlite "
             "(default: $VRD_STORE_PATH, else .vrd-cache/results.sqlite)",
    )
    fig14.add_argument(
        "--no-cache", action="store_true",
        help="recompute even if the sweep is cached",
    )
    fig14.add_argument(
        "--check-timing", action="store_true",
        help="validate every simulated REF/PRE/ACT against the JEDEC "
             "timing rule table, simulating even a stored sweep; the "
             "first violation aborts the run",
    )
    _add_trace_flags(fig14)

    from repro.store.db import KINDS

    store_cmd = sub.add_parser(
        "store", help="result-store maintenance (sqlite, shared)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="entry counts and payload bytes per result kind"
    )
    store_stats.add_argument("--store", default=None, metavar="FILE")
    prune = store_sub.add_parser(
        "prune", help="delete stored entries by kind and/or age"
    )
    prune.add_argument(
        "--kind", default=None, choices=KINDS,
        help="only this result kind (default: every kind)",
    )
    prune.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="only entries written more than DAYS days ago",
    )
    prune.add_argument("--store", default=None, metavar="FILE")

    sub.add_parser(
        "verify",
        help="quick self-check: headline results land in their paper bands",
    )

    report = sub.add_parser(
        "report",
        help="run an instrumented smoke workload across every subsystem "
             "and print its observability report",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of tables",
    )
    report.add_argument(
        "-o", "--output", default=None,
        help="also save the JSON report to this file",
    )
    report.add_argument("--seed", type=int, default=1234)

    return parser


def _cmd_devices() -> int:
    from repro.analysis.tables import format_table
    from repro.chips import ALL_SPECS

    rows = [
        (d.manufacturer, d.module_id, d.standard, d.chips,
         f"{d.density}-{d.die_rev}", d.org, d.date_code)
        for d in ALL_SPECS
    ]
    print(format_table(
        ["Mfr", "Device", "Std", "Chips", "Density-Rev", "Org", "Date"],
        rows, title="Tested devices (paper Table 1)",
    ))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    _check_measurements(args.measurements, MEASURE_MAX_N)
    from repro.chips import build_module
    from repro.core import FastRdtMeter, TestConfig
    from repro.core.patterns import pattern_by_name
    from repro.core import stats
    from repro.rng import DEFAULT_SEED

    module = build_module(args.module, seed=args.seed or DEFAULT_SEED)
    module.disable_interference_sources()
    config = TestConfig(
        pattern_by_name(args.pattern),
        t_agg_on_ns=module.timing.tRAS,
        temperature_c=args.temperature,
        wordline_voltage_v=args.voltage,
    )
    if args.adaptive:
        from repro.core.adaptive import AdaptiveScheduler

        result = AdaptiveScheduler(
            module, [config], _adaptive_config(args)
        ).run([args.row])
        estimate = result.estimates[0]
        print(
            f"{args.module} row {args.row} | adaptive RDT estimate "
            f"{estimate.estimate:,.0f} ± {estimate.ci_half_width:,.0f} "
            f"({estimate.confidence:.0%} CI)"
        )
        print(
            f"stopped after {estimate.n_measured} measurements "
            f"({estimate.stopping_reason}); min seen {estimate.minimum:,.0f}"
        )
        print(
            f"trials: {estimate.trials} adaptive vs "
            f"{estimate.exhaustive_trials} exhaustive for the same "
            f"measurements ({result.trial_reduction_estimate:.1f}x fewer "
            f"vs a full {args.measurements}-measurement series)"
        )
        return 0

    meter = FastRdtMeter(module)
    series = meter.measure_series(args.row, config, args.measurements)
    print(series.describe())
    print(f"min appears {series.min_count}x, first at measurement "
          f"{series.first_min_index()}")
    print(f"max/min ratio {series.max_to_min_ratio:.3f}; single-measurement "
          f"state changes "
          f"{stats.fraction_single_measurement_changes(series.valid):.1%}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.figures import module_campaign
    from repro.analysis.tables import format_table
    from repro.core.engine import CampaignCache
    from repro.core.montecarlo import STANDARD_N_VALUES
    from repro.rng import DEFAULT_SEED

    _check_profile_size(args.rows_per_block, args.measurements)
    cache = None if args.no_cache else CampaignCache.resolve(args.cache_dir)
    if args.adaptive:
        return _cmd_profile_adaptive(args, cache)
    result = module_campaign(
        args.module,
        rows_per_block=args.rows_per_block,
        n_measurements=args.measurements,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        cache=cache,
    )
    rows = []
    ns = [n for n in STANDARD_N_VALUES if n <= args.measurements]
    for n, (probs, enorm) in result.min_rdt_distributions(ns).items():
        rows.append((n, float(np.median(probs)), float(np.median(enorm)),
                     float(enorm.max())))
    print(format_table(
        ["N", "median P(find min)", "median E[min]/min", "worst"],
        rows, title=f"{args.module} | VRD profile "
                    f"({len(result)} row-condition series)",
    ))
    if args.output:
        from repro.core.store import save_campaign

        save_campaign(result, args.output)
        print(f"campaign saved to {args.output}")
    return 0


def _cmd_profile_adaptive(args: argparse.Namespace, cache) -> int:
    import numpy as np

    from repro.analysis.figures import adaptive_module_campaign
    from repro.analysis.tables import format_table
    from repro.rng import DEFAULT_SEED

    result = adaptive_module_campaign(
        args.module,
        rows_per_block=args.rows_per_block,
        n_measurements=args.measurements,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        cache=cache,
        adaptive=_adaptive_config(args),
    )
    reasons = result.stopping_reasons()
    rows = []
    for config in {e.config: None for e in result.estimates}:
        estimates = result.for_config(config)
        measured = [e.n_measured for e in estimates]
        rows.append((
            config.label(),
            len(estimates),
            sum(1 for e in estimates if e.converged),
            f"{float(np.mean(measured)):.1f}",
            sum(e.trials for e in estimates),
        ))
    print(format_table(
        ["config", "rows", "converged", "mean n", "trials"],
        rows,
        title=f"{args.module} | adaptive VRD profile "
              f"({len(result)} row-condition estimates)",
    ))
    print(
        f"trials spent: {result.trials_spent:,} "
        f"(~{result.trial_reduction_estimate:.1f}x fewer than exhaustive "
        f"{args.measurements}-measurement series); "
        f"rounds: {result.rounds}; stopping: "
        + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items()))
    )
    if args.output:
        import json as json_module

        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_payload(), handle)
        print(f"adaptive result saved to {args.output}")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.ecc import table3
    from repro.ecc.analysis import PAPER_WORST_BER

    ber = args.ber if args.ber is not None else PAPER_WORST_BER
    rows = [tuple(p.as_row().values()) for p in table3(ber).values()]
    print(format_table(
        ["scheme", "uncorrectable", "undetectable", "detectable uncorr."],
        rows, title=f"Table 3 at BER {ber:.2e}",
    ))
    return 0


def _cmd_testtime() -> int:
    from repro.analysis.tables import format_table
    from repro.testtime import TestTimeEstimator

    summary = TestTimeEstimator().summary()
    rows = [
        (key, f"{days:,.1f}", f"{joules / 1e6:.2f}")
        for key, (days, joules) in summary.items()
    ]
    print(format_table(
        ["scenario", "days", "MJ"], rows,
        title="Appendix A | whole-chip testing budgets",
    ))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.chips import build_module
    from repro.core import CHECKERED0, TestConfig
    from repro.errors import ConfigurationError
    from repro.security import profile_and_attack

    _check_range("--windows", args.windows, ATTACK_MAX_WINDOWS,
                 ConfigurationError)
    _check_range("--profile-n", args.profile_n, MEASURE_MAX_N,
                 ConfigurationError)

    module = build_module(args.module)
    module.disable_interference_sources()
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    outcome = profile_and_attack(
        module, args.row, config, args.kind,
        profile_measurements=args.profile_n, margin=args.margin,
        windows=args.windows,
    )
    state = "FLIPPED" if outcome.flipped else "survived"
    print(f"{args.kind} configured from {args.profile_n} measurements with "
          f"{args.margin:.0%} guardband (threshold {outcome.threshold:.0f}): "
          f"victim {state} after {outcome.windows} windows")
    print(f"minimum instantaneous RDT seen: {outcome.min_rdt_seen:.0f}; "
          f"worst exposure margin {outcome.min_exposure_margin:+.2%}")
    return 1 if outcome.flipped else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.tables import format_table
    from repro.core.store import load_campaign
    from repro.errors import MeasurementError

    try:
        result = load_campaign(args.file)
    except MeasurementError as error:
        print(f"repro analyze: {args.file}: {error}; re-save it with "
              "`python -m repro profile --output`", file=sys.stderr)
        return 2
    print(f"campaign: {result.module_id}, {len(result)} series over "
          f"{len(result.rows())} rows")
    rows = []
    for n, (probs, enorm) in result.min_rdt_distributions().items():
        if enorm.size == 0:
            continue
        rows.append((n, float(np.median(probs)), float(np.median(enorm)),
                     float(enorm.max())))
    print(format_table(
        ["N", "median P(find min)", "median E[min]/min", "worst"],
        rows, title="minimum-RDT identification (Sec. 5.1)",
    ))
    cv = result.cv_s_curve()
    print(f"CV S-curve: P50={float(np.percentile(cv, 50)):.4f} "
          f"max={float(cv.max()):.4f}; rows varying under every config: "
          f"{result.fraction_always_varying():.1%}")
    return 0


def _cmd_fig14(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.memsim.sweep import SweepSpec, run_sweep
    from repro.store import ResultStore

    spec = SweepSpec(n_mixes=args.mixes, window_ns=args.window)
    cache = None if args.no_cache else ResultStore.resolve(args.cache_dir)
    result = run_sweep(spec, cache=cache, check_timing=args.check_timing)
    rows = []
    for rdt in spec.rdts:
        for margin in spec.margins:
            rows.append((
                int(rdt),
                f"{int(margin * 100)}%",
                *(
                    f"{result.speedup(rdt, margin, name):.4f}"
                    for name in spec.mitigations
                ),
            ))
    print(format_table(
        ["RDT", "margin", *spec.mitigations],
        rows,
        title=f"Fig. 14 | normalized weighted speedup ({spec.n_mixes} "
              "four-core mixes)",
    ))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.errors import ConfigurationError
    from repro.store import ResultStore

    store = ResultStore.resolve(store_path=args.store)
    if store is None:
        raise ConfigurationError(
            "storage is disabled (empty VRD_STORE_PATH); "
            "pass --store explicitly"
        )
    if args.store_command == "stats":
        stats = store.stats()
        rows = [
            (kind, count)
            for kind, count in sorted(stats["per_kind"].items())
        ]
        rows.append(("total", stats["entries"]))
        print(format_table(
            ["kind", "entries"], rows,
            title=f"result store {stats['path']} "
                  f"({stats['payload_bytes']:,} payload bytes)",
        ))
        if stats["per_protocol"]:
            print(format_table(
                ["protocol", "entries"],
                sorted(stats["per_protocol"].items()),
                title="entries per DRAM protocol",
            ))
        return 0
    if args.store_command == "prune":
        if args.kind is None and args.older_than is None:
            print(
                "store prune: refusing to delete every entry; pass --kind "
                "and/or --older-than to select what to prune",
                file=sys.stderr,
            )
            return 1
        older_than_s = (
            args.older_than * 86400.0 if args.older_than is not None else None
        )
        try:
            pruned = store.prune(kind=args.kind, older_than_s=older_than_s)
        except ConfigurationError:
            # --kind is already restricted by argparse; only the age is left.
            print(
                "store prune: --older-than must be a finite non-negative "
                f"number of days, got {args.older_than:g}",
                file=sys.stderr,
            )
            return 1
        stats = store.stats()
        scope = args.kind if args.kind else "all kinds"
        print(f"pruned {pruned} {scope} entries; store now holds "
              f"{stats['entries']} entries")
        if stats["per_protocol"]:
            remaining = ", ".join(
                f"{protocol}={count}"
                for protocol, count in stats["per_protocol"].items()
            )
            print(f"remaining by protocol: {remaining}")
        return 0
    raise AssertionError(
        f"unhandled store command {args.store_command}"
    )  # pragma: no cover


def _cmd_verify() -> int:
    """Fast end-to-end sanity checks against the paper's headline bands."""
    import numpy as np

    from repro.chips import build_module
    from repro.core import CHECKERED0, FastRdtMeter, TestConfig
    from repro.core import stats
    from repro.core.montecarlo import probability_of_min
    from repro.ecc import table3
    from repro.testtime import TestTimeEstimator

    checks: List[tuple] = []

    module = build_module("M1")
    module.disable_interference_sources()
    meter = FastRdtMeter(module)
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    guesses = sorted((meter.guess_rdt(r, config), r) for r in range(128))
    rows = [row for _, row in guesses[:20]]
    probs, switches = [], []
    for row in rows:
        series = meter.measure_series(row, config, 1000)
        probs.append(probability_of_min(series.require_valid(), 1))
        switches.append(
            stats.fraction_single_measurement_changes(series.valid)
        )
    checks.append((
        "P(find min | N=1) median in [0.05%, 1%]",
        0.0005 <= float(np.median(probs)) <= 0.01,
    ))
    checks.append((
        "single-measurement state changes in [50%, 95%] (paper: 79%)",
        0.5 <= float(np.mean(switches)) <= 0.95,
    ))

    ecc = table3()
    checks.append((
        "Table 3 SECDED undetectable ~ 2.64e-8",
        abs(ecc["SECDED"].undetectable / 2.64e-8 - 1.0) < 0.05,
    ))

    days, joules = TestTimeEstimator().summary()["rowhammer_100k"]
    checks.append(("Appendix A RowHammer 100K ~ 61 days", 45 < days < 80))
    checks.append(("Appendix A RowHammer 100K ~ 13 MJ",
                   9e6 < joules < 18e6))

    failures = 0
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failures += not ok
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def _report_workload(seed: int) -> None:
    """A small deterministic workload touching every instrumented layer:
    probe + bulk series (faults/fastfaults), one Bender measurement (its
    trials replay one compiled plan), one memsim sweep cell, the ECC Monte
    Carlo, and the same small catalog campaign run twice over a throwaway
    sqlite store (compute, then a warm store hit) for the
    ``cache.*``/``store.*`` metrics."""
    import tempfile

    from repro.bender.host import DramBender
    from repro.analysis.figures import module_campaign
    from repro.core import CHECKERED0, FastRdtMeter, TestConfig
    from repro.core.engine import CampaignCache
    from repro.core.rdt import HammerSweep, RdtMeter, find_victim
    from repro.dram.faults import VrdModelParams
    from repro.dram.geometry import DramGeometry
    from repro.dram.module import DramModule
    from repro.ecc.analysis import default_codec, monte_carlo_outcomes
    from repro.memsim.sweep import SweepSpec, run_sweep

    geometry = DramGeometry(
        n_banks=2, n_rows=1024, row_bits_per_chip=1024, n_chips=8
    )
    module = DramModule(
        "OBS-SMOKE",
        geometry=geometry,
        vrd_params=VrdModelParams(mean_rdt=2000.0),
        seed=seed,
    )
    module.disable_interference_sources()
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)

    meter = FastRdtMeter(module)
    guess, victim = find_victim(meter, range(64), config)
    meter.measure_series_batch([victim, victim + 1], config, 50)

    bender = DramBender(module)
    sweep = HammerSweep.from_guess(guess)
    RdtMeter(bender).measure(victim, config, sweep)

    spec = SweepSpec(mitigations=("PARA",), rdts=(1024.0,), margins=(0.0,),
                     n_mixes=1, window_ns=10_000.0)
    run_sweep(spec, cache=None)

    monte_carlo_outcomes(default_codec("SECDED"), 1e-4, trials=2048)

    # Campaign + store round trip: the first run computes, the second hits.
    with tempfile.TemporaryDirectory(prefix="vrd-report-") as tmp:
        cache = CampaignCache(tmp)
        for _ in range(2):
            module_campaign(
                "M1", rows_per_block=1, n_measurements=20,
                patterns=(CHECKERED0,), seed=seed, cache=cache,
                select_block_rows=16,
            )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import obs

    with obs.tracing() as recorder:
        with recorder.span("report.workload"):
            _report_workload(args.seed)
        report = obs.RunReport.from_recorder(
            recorder, command="report", seed=args.seed
        )
    print(report.to_json() if args.json else report.render())
    if args.output:
        report.save(args.output)
        print(f"report saved to {args.output}", file=sys.stderr)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "devices":
        return _cmd_devices()
    if args.command == "measure":
        return _cmd_measure(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "testtime":
        return _cmd_testtime()
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "fig14":
        return _cmd_fig14(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "verify":
        return _cmd_verify()
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _run(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if not (getattr(args, "trace", False) or trace_out):
        return _run(args)

    from repro import obs

    with obs.tracing() as recorder:
        code = _run(args)
        report = obs.RunReport.from_recorder(
            recorder, command=args.command, exit_code=code
        )
    if trace_out:
        report.save(trace_out)
        print(f"trace report saved to {trace_out}", file=sys.stderr)
    else:
        print(report.render(), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
