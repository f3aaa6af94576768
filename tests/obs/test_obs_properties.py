"""Property-based tests for the observability core.

Driven by seeded :mod:`random` (no extra dependencies): random operation
streams are applied to a recorder and its snapshot is checked against
them exactly. Values are kept integral so snapshot equality can be
``==``.
"""

import json
import random
import time

import pytest

from repro import obs


class ManualClock:
    """Deterministic nanosecond clock for driving spans."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def make_recorder():
    wall, cpu = ManualClock(), ManualClock()
    return obs.Recorder(wall_clock=wall, cpu_clock=cpu), wall, cpu


# ----------------------------------------------------------------------
# Random operation streams
# ----------------------------------------------------------------------


def random_ops(rng: random.Random, n: int):
    """A stream of recorder operations with small name pools (so ops
    collide on metric names) and integral values."""
    ops = []
    for _ in range(n):
        kind = rng.choice(("counter", "span", "gauge"))
        if kind == "counter":
            ops.append(("counter", f"c{rng.randrange(4)}", rng.randint(1, 50)))
        elif kind == "gauge":
            ops.append(("gauge", f"g{rng.randrange(2)}", rng.randint(0, 99)))
        else:
            ops.append((
                "span", f"s{rng.randrange(3)}",
                rng.randint(1, 1000), rng.randint(1, 1000),
            ))
    return ops


def apply_ops(recorder, wall, cpu, ops) -> None:
    for op in ops:
        if op[0] == "counter":
            recorder.counter_add(op[1], op[2])
        elif op[0] == "gauge":
            recorder.gauge_set(op[1], op[2])
        else:
            with recorder.span(op[1]):
                wall.advance(op[2])
                cpu.advance(op[3])


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------


def test_nested_spans_aggregate_by_path():
    recorder, wall, cpu = make_recorder()
    with recorder.span("a"):
        wall.advance(10)
        cpu.advance(5)
        with recorder.span("b"):
            wall.advance(100)
            cpu.advance(50)
        wall.advance(1)
    assert set(recorder.spans) == {"a", "a/b"}
    assert recorder.spans["a/b"].wall_ns == 100
    assert recorder.spans["a/b"].cpu_ns == 50
    assert recorder.spans["a"].wall_ns == 111
    assert recorder.spans["a"].cpu_ns == 55


def test_span_reentry_aggregates_not_duplicates():
    recorder, wall, cpu = make_recorder()
    for duration in (5, 50, 500):
        with recorder.span("hot"):
            wall.advance(duration)
    stats = recorder.spans["hot"]
    assert stats.count == 3
    assert stats.wall_ns == 555
    assert stats.min_wall_ns == 5
    assert stats.max_wall_ns == 500


def test_span_exits_cleanly_on_exception():
    recorder, wall, cpu = make_recorder()
    with pytest.raises(RuntimeError):
        with recorder.span("outer"):
            with recorder.span("inner"):
                wall.advance(3)
                raise RuntimeError("boom")
    # The stack must unwind fully; later spans get un-prefixed paths.
    with recorder.span("later"):
        wall.advance(1)
    assert set(recorder.spans) == {"outer", "outer/inner", "later"}


@pytest.mark.parametrize("seed", [7, 77, 777])
def test_random_span_trees_close_their_stack(seed):
    rng = random.Random(seed)
    recorder, wall, cpu = make_recorder()

    def walk(depth):
        for _ in range(rng.randint(1, 3)):
            with recorder.span(f"n{rng.randrange(4)}"):
                wall.advance(rng.randint(1, 9))
                if depth < 3 and rng.random() < 0.5:
                    walk(depth + 1)

    walk(0)
    assert recorder._stack == []
    total = sum(stats.count for stats in recorder.spans.values())
    assert total > 0
    for path, stats in recorder.spans.items():
        assert stats.min_wall_ns <= stats.max_wall_ns
        assert stats.count * stats.min_wall_ns <= stats.wall_ns


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [5, 55])
def test_snapshot_totals_match_ops_and_survive_json(seed):
    """A snapshot is the JSON-able aggregate of exactly the recorded ops:
    counters sum, spans count their entries, and gauges keep the last
    write."""
    rng = random.Random(seed)
    recorder, wall, cpu = make_recorder()
    ops = random_ops(rng, 30)
    apply_ops(recorder, wall, cpu, ops)
    snapshot = recorder.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot

    counters, spans, gauges = {}, {}, {}
    for op in ops:
        if op[0] == "counter":
            counters[op[1]] = counters.get(op[1], 0) + op[2]
        elif op[0] == "span":
            spans[op[1]] = spans.get(op[1], 0) + 1
        else:
            gauges[op[1]] = float(op[2])
    assert snapshot["counters"] == counters
    assert snapshot["gauges"] == gauges
    assert {
        path: stats["count"] for path, stats in snapshot["spans"].items()
    } == spans

# ----------------------------------------------------------------------
# Active-recorder plumbing
# ----------------------------------------------------------------------


def test_noop_is_default_and_inert():
    assert obs.active() is obs.NOOP
    assert not obs.enabled()
    obs.NOOP.counter_add("ignored", 5)
    span_a = obs.NOOP.span("a")
    span_b = obs.NOOP.span("b")
    assert span_a is span_b  # one shared null span, no allocation
    assert obs.NOOP.snapshot()["counters"] == {}


def test_noop_call_cost_within_budget():
    """The disabled recorder is what every instrumented hot loop calls: a
    stray allocation or dict write there fails this budget (1500 ns per
    call, best of 3; tens of ns is typical)."""
    calls = 200_000

    def ns_per_call() -> float:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            obs.NOOP.counter_add("bench.noop")
            obs.NOOP.span("bench.noop")
        return (time.perf_counter_ns() - t0) / (2 * calls)

    assert min(ns_per_call() for _ in range(3)) <= 1500.0


def test_tracing_scope_installs_and_restores():
    assert obs.active() is obs.NOOP
    with obs.tracing() as recorder:
        assert obs.active() is recorder
        assert obs.enabled()
        with obs.tracing() as inner:
            assert obs.active() is inner
        assert obs.active() is recorder
    assert obs.active() is obs.NOOP


def test_tracing_restores_on_exception():
    with pytest.raises(RuntimeError):
        with obs.tracing():
            raise RuntimeError("boom")
    assert obs.active() is obs.NOOP


def test_clear_resets_everything():
    recorder, wall, cpu = make_recorder()
    apply_ops(recorder, wall, cpu, random_ops(random.Random(9), 20))
    recorder.clear()
    assert recorder.snapshot() == obs.NOOP.snapshot()
