"""Zero-dependency run observability: trace spans and typed metrics.

Four PRs of fast paths promise bit-identical results to their scalar
oracles, but until now the repo had no way to see *what a run did* — cache
hits, per-phase timings, trap-flip sampling paths, mitigation trigger
rates. This module is the measurement substrate: a process-local
:class:`Recorder` that the hot layers feed through a handful of cheap
calls, and that renders into a per-run report (:mod:`repro.obs.report`).

Three design rules keep it safe to wire through every hot loop:

* **Near-zero overhead when disabled.** The active recorder defaults to
  :data:`NOOP`, whose methods are empty and whose ``span`` returns one
  shared null context manager — no allocation, no branching beyond the
  method call. Hot loops additionally gate per-iteration recording on
  ``recorder.enabled`` (a plain attribute) and record aggregates once per
  batch/run instead of per element. ``tests/obs/test_obs_properties.py``
  budgets a NOOP call, and ``benchmarks/test_perf_budgets.py`` budgets
  a traced sweep against an untraced one.
* **Deterministic-safe.** Metrics never touch the seeded
  :mod:`repro.rng` streams: timings come from ``time.perf_counter_ns`` /
  ``time.process_time_ns`` (injectable for tests), and every other value
  is derived from quantities the computation already produced. Tracing on
  vs. off therefore cannot change a scientific output;
  ``tests/differential`` asserts bit-identity with tracing toggled.
* **Aggregated, not logged.** Spans aggregate by path (count, total,
  min/max), counters add, and gauges are last-write-wins process-wide
  facts (e.g. whether the geometric mirror is active).
  :meth:`Recorder.snapshot` is their JSON-able copy.

Enable tracing with ``VRD_TRACE=1`` (checked at import), programmatically
via :func:`enable`/:func:`disable`, or scoped with :func:`tracing`.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional

#: Environment variable enabling tracing at import time. Empty or ``"0"``
#: means disabled (the default); anything else enables a fresh recorder.
TRACE_ENV_VAR = "VRD_TRACE"

#: Snapshot format version, checked by :mod:`repro.obs.report`.
SNAPSHOT_FORMAT = 2

class SpanStats:
    """Aggregated timings of every entry into one span path."""

    __slots__ = ("count", "wall_ns", "cpu_ns", "min_wall_ns", "max_wall_ns")

    def __init__(self) -> None:
        self.count = 0
        self.wall_ns = 0
        self.cpu_ns = 0
        self.min_wall_ns: Optional[int] = None
        self.max_wall_ns: Optional[int] = None

    def add(self, wall_ns: int, cpu_ns: int) -> None:
        self.count += 1
        self.wall_ns += wall_ns
        self.cpu_ns += cpu_ns
        if self.min_wall_ns is None or wall_ns < self.min_wall_ns:
            self.min_wall_ns = wall_ns
        if self.max_wall_ns is None or wall_ns > self.max_wall_ns:
            self.max_wall_ns = wall_ns

    def to_payload(self) -> dict:
        return {
            "count": self.count,
            "wall_ns": self.wall_ns,
            "cpu_ns": self.cpu_ns,
            "min_wall_ns": self.min_wall_ns,
            "max_wall_ns": self.max_wall_ns,
        }


class _Span:
    """Context manager timing one entry into a named span.

    Span paths are hierarchical: entering ``b`` inside ``a`` aggregates
    under ``"a/b"``. Stats are keyed by full path, so a hot span entered a
    million times costs one dict entry, not a million records.
    """

    __slots__ = ("_recorder", "_name", "_wall0", "_cpu0")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        recorder._stack.append(self._name)
        self._wall0 = recorder._wall()
        self._cpu0 = recorder._cpu()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        wall = recorder._wall() - self._wall0
        cpu = recorder._cpu() - self._cpu0
        path = "/".join(recorder._stack)
        recorder._stack.pop()
        stats = recorder.spans.get(path)
        if stats is None:
            stats = recorder.spans[path] = SpanStats()
        stats.add(wall, cpu)
        return False


class _NullSpan:
    """Shared no-op span; __enter__/__exit__ do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Process-local trace/metric sink.

    Args:
        wall_clock: Monotonic nanosecond clock (injectable so property
            tests can drive spans with a deterministic fake).
        cpu_clock: Process CPU-time nanosecond clock.
    """

    #: Hot paths branch on this plain attribute instead of calling.
    enabled = True

    def __init__(
        self,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.process_time_ns,
    ):
        self._wall = wall_clock
        self._cpu = cpu_clock
        self._stack: List[str] = []
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- recording -----------------------------------------------------

    def span(self, name: str) -> _Span:
        """Time a block: ``with recorder.span("sweep.run"): ...``."""
        return _Span(self, name)

    def counter_add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able copy of everything recorded so far.

        Open spans are not included — snapshot after a span closes, not
        mid-span.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "spans": {
                path: stats.to_payload() for path, stats in self.spans.items()
            },
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def clear(self) -> None:
        self._stack.clear()
        self.spans.clear()
        self.counters.clear()
        self.gauges.clear()


class NoopRecorder:
    """Disabled recorder: every method is an empty body.

    There is exactly one instance (:data:`NOOP`); hot layers can hold a
    reference without caring whether tracing is on.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def counter_add(self, name: str, value: float = 1) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "spans": {},
            "counters": {},
            "gauges": {},
        }

    def clear(self) -> None:
        pass


NOOP = NoopRecorder()

_active = NOOP


def active():
    """The process's current recorder (:data:`NOOP` unless enabled)."""
    return _active


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _active.enabled


def enable(recorder: Optional[Recorder] = None) -> Recorder:
    """Install ``recorder`` (or a fresh one) as the active recorder."""
    global _active
    _active = recorder if recorder is not None else Recorder()
    return _active


def disable():
    """Restore the no-op recorder; returns the recorder that was active."""
    global _active
    previous = _active
    _active = NOOP
    return previous


class tracing:
    """Scoped tracing: ``with obs.tracing() as rec: ...``.

    Installs a fresh (or given) recorder on entry and restores the
    previous one on exit, so nested/temporary tracing cannot leak.
    """

    def __init__(self, recorder: Optional[Recorder] = None):
        self._recorder = recorder

    def __enter__(self) -> Recorder:
        self._previous = _active
        return enable(self._recorder)

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        _active = self._previous
        return False


def trace_env_enabled() -> bool:
    """Whether ``VRD_TRACE`` asks for tracing (unset/empty/"0" mean no)."""
    return os.environ.get(TRACE_ENV_VAR, "").strip() not in ("", "0")


if trace_env_enabled():  # pragma: no cover - exercised via subprocess tests
    enable()
