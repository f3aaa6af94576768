"""One pass of one workload in a fresh process.

``python bench/worker.py WORKLOAD SEED TRACE`` (TRACE is 0 or 1) prints
one JSON object: set-up and pass times, peak RSS, each operation's digest
and problems, work counts, and with TRACE=1 the per-layer metrics. It
expects ``PYTHONPATH`` to name the repository's ``src``; ``run.py`` sets
up that environment and is the entry point to use.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

_SRC = Path(__file__).resolve().parent.parent / "src"


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _layers(tracer, installation, wall_ns: int, work: dict) -> dict:
    layers = tracing.layer_metrics(tracer, wall_ns, installation.missing)

    def inclusive_s(*prefixes: str) -> float:
        return sum(tracer.stats.get(p, (0, 0, 0))[2] for p in prefixes) / 1e9

    loads = work.get("cache_warm_loads", 0)
    layers.update({
        "work.measurements": work.get("measurements", 0),
        "work.windows": work.get("windows", 0),
        "work.trials": work.get("trials", 0),
        "work.sweep_cells": work.get("sweep_cells", 0),
        "core.engine.CampaignCache.hit_ratio": (
            work.get("cache_warm_hits", 0) / loads if loads else 0.0
        ),
        "security.attack.windows_per_s": _rate(
            work.get("windows", 0), inclusive_s("security.attack.attack_escape")
        ),
        "core.rdt.measurements_per_s": _rate(
            work.get("measurements", 0),
            inclusive_s("core.rdt.FastRdtMeter.measure_series", "core.campaign.Campaign.run"),
        ),
        "bench.traced_wall_s": wall_ns / 1e9,
    })
    return layers


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent.parent != _SRC:
        print(f"repro imported from {repro.__file__}, not {_SRC}", file=sys.stderr)
        return 2
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    state = setup(seed)
    ready = time.perf_counter()
    tracer = installation = None
    if traced:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
    ops = workloads.Ops()
    start = time.perf_counter_ns()
    run(state, ops)
    wall_ns = time.perf_counter_ns() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if installation is not None:
        installation.undo()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": ready - _START,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "ops": ops.results(),
        "work": ops.work,
        "layers": _layers(tracer, installation, wall_ns, ops.work) if traced else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
