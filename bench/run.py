"""Benchmark: host time and memory to reproduce the paper's experiments.

Usage, from the repository root::

    python bench/run.py [--seed S] [--out FILE]
    python bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Without ``--workload`` it runs every workload ``REPEATS`` times, rounds
interleaved (W1..W4, W1..W4, ...), then one traced pass of each, and
prints every metric with its spread. With ``--workload`` it runs fresh
passes of that one workload for ``--seconds`` seconds (alternating
untraced and traced passes under ``--trace 1``) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

Every pass runs in a fresh process (``worker.py``) because the package
keeps per-process caches, with a fresh result store, serial execution and
the package's tuning variables cleared. Outputs are checked on every pass
(see ``workloads.py``): against the other passes, against
``golden.json`` at seed 0, and against structural and paper invariants.
A failed check counts a failed operation; it never stops the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("foundational", "campaigns", "implications", "attack")
#: Untraced passes per workload without ``--workload``.
REPEATS = 5
#: Fewest passes of each kind a ``--workload`` run takes, even past
#: ``--seconds``, so every median has several samples.
MIN_PASSES = 3
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Environment variables that select package behaviour; cleared so every
#: pass runs the same program (serial engine, no tracing, default paths).
CLEARED_ENV = (
    "VRD_JOBS", "VRD_TRACE", "VRD_TIMING_CHECK", "VRD_GEOMETRIC_MIRROR",
    "VRD_CACHE_DIR",
)


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end-to-end, per-layer)`` metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def summarize(samples: List[float]) -> dict:
    """Median, extremes, quartiles (``statistics.quantiles``) and samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "q1": q1,
        "q3": q3,
        "samples": list(samples),
    }


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


class Runner:
    """Spawns worker passes and folds their results per workload."""

    def __init__(self, seed: int, tmp_dir: Path, golden: Optional[dict]):
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.golden = golden
        self.passes: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
        self.problems: Dict[str, List[str]] = {name: [] for name in WORKLOADS}
        self.crashes: Dict[str, int] = {name: 0 for name in WORKLOADS}

    def run_pass(self, workload: str, traced: bool, timeout: float) -> Optional[dict]:
        """One fresh-process pass; ``None`` (and a failure) if it crashed."""
        pass_dir = Path(tempfile.mkdtemp(dir=self.tmp_dir))
        env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        env.update({
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "VRD_STORE_PATH": str(pass_dir / "results.sqlite"),
            "TMPDIR": str(pass_dir),
        })
        command = [
            sys.executable, str(BENCH / "worker.py"),
            workload, str(self.seed), "1" if traced else "0",
        ]
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                text=True, timeout=max(timeout, 1.0),
            )
            if done.returncode != 0:
                raise ValueError(f"exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            self.crashes[workload] += 1
            self.problems[workload].append(f"pass crashed: {exc!r}")
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes[workload].append(result)
        return result

    def check(self, workload: str) -> Tuple[int, int]:
        """``(attempted, failed)`` operations over every pass, after the
        per-operation checks, the cross-pass digest comparison and, at
        seed 0 on the recorded numpy version, the golden digests. A
        crashed pass counts as one failed operation."""
        passes = self.passes[workload]
        golden = None
        if (
            self.golden is not None and self.seed == self.golden["seed"]
            and passes and passes[0]["numpy"] == self.golden["numpy"]
        ):
            golden = self.golden["workloads"].get(workload)
        first = {op["name"]: op["digest"] for op in passes[0]["ops"]} if passes else {}
        attempted = failed = self.crashes[workload]
        problems = self.problems[workload]
        for index, result in enumerate(passes):
            for op in result["ops"]:
                attempted += 1
                issues = list(op["problems"])
                if op["digest"] != first.get(op["name"]):
                    issues.append("digest differs from the first pass")
                if golden is not None and op["digest"] != golden.get(op["name"]):
                    issues.append("digest differs from golden.json")
                if issues:
                    failed += 1
                    problems.append(f"pass {index} {op['name']}: {'; '.join(issues)}")
        return attempted, failed

    def summary(self, workload: str, end_to_end: Dict[str, str]) -> dict:
        passes = self.passes[workload]
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        attempted, failed = self.check(workload)
        out = {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "problems": self.problems[workload],
            "work": untraced[0]["work"] if untraced else {},
            "end_to_end": {},
            "per_layer": {},
        }
        if untraced:
            for name in end_to_end:
                out["end_to_end"][name] = summarize([p[name] for p in untraced])
        if traced:
            for name in traced[0]["layers"]:
                values = [p["layers"][name] for p in traced]
                out["per_layer"][name] = (
                    None if None in values else summarize(values)
                )
            if untraced:
                out["per_layer"]["trace_overhead"] = summarize([
                    statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in untraced)
                ])
        return out


def load_golden() -> Optional[dict]:
    try:
        return json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return None


def timed_run(runner: Runner, workload: str, seconds: float, trace: bool) -> None:
    """Passes of one workload until ``seconds`` is spent (at least
    ``MIN_PASSES`` of each kind), predicting the next pass from the mean so
    far so the run does not overshoot."""
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    count = 0
    while runner.crashes[workload] < 2:
        elapsed = time.monotonic() - start
        fewest = min(
            sum(p["traced"] == kind for p in runner.passes[workload]) for kind in kinds
        )
        if fewest >= MIN_PASSES and elapsed + elapsed / count > seconds:
            break
        if elapsed > RUN_LIMIT_S - 20:
            break
        runner.run_pass(workload, kinds[count % len(kinds)], RUN_LIMIT_S - elapsed)
        count += 1


def print_summary(workload: str, summary: dict, units: Dict[str, str]) -> None:
    print(
        f"{workload}: {summary['passes']} passes, {summary['traced_passes']} traced, "
        f"{summary['failed']}/{summary['attempted']} operations failed"
    )
    for name, stats in summary["end_to_end"].items():
        print(
            f"  {name:<12} {stats['median']:.4f} {units[name]} "
            f"(q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, "
            f"min {stats['min']:.4f}, max {stats['max']:.4f})"
        )
    for problem in summary["problems"][:20]:
        print(f"  problem: {problem}")


def write_golden(runner: Runner) -> int:
    """One untraced pass of each workload at seed 0 -> ``golden.json``."""
    golden = {"seed": 0, "numpy": None, "workloads": {}}
    for name in WORKLOADS:
        result = runner.run_pass(name, False, timeout=600)
        if result is None or any(op["problems"] for op in result["ops"]):
            print(f"{name}: pass failed; golden.json not written", file=sys.stderr)
            return 1
        golden["numpy"] = result["numpy"]
        golden["workloads"][name] = {op["name"]: op["digest"] for op in result["ops"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="run each workload once at seed 0 and rewrite golden.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units()

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.write_golden:
            return write_golden(Runner(0, tmp_dir, None))
        runner = Runner(args.seed, tmp_dir, load_golden())
        if args.workload:
            timed_run(runner, args.workload, args.seconds, bool(args.trace))
            names = [args.workload]
        else:
            for _ in range(REPEATS):
                for name in WORKLOADS:
                    runner.run_pass(name, False, timeout=600)
            for name in WORKLOADS:
                runner.run_pass(name, True, timeout=600)
            names = list(WORKLOADS)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    record = dict(provenance(args.seed), repeats=REPEATS)
    record["numpy"] = next(
        (p["numpy"] for name in names for p in runner.passes[name]), None
    )
    record["units"] = {**end_to_end, **per_layer}
    record["workloads"] = {name: runner.summary(name, end_to_end) for name in names}
    for name in names:
        print_summary(name, record["workloads"][name], end_to_end)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if not args.workload:
        print(json.dumps(record))
        return 0
    summary = record["workloads"][args.workload]
    chosen, units = (
        (summary["per_layer"], per_layer) if args.trace
        else (summary["end_to_end"], end_to_end)
    )
    metrics = {
        name: {
            "value": None if chosen.get(name) is None else chosen[name]["median"],
            "unit": unit,
        }
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
