"""Property-based tests for the observability core.

Driven by seeded :mod:`random` (no extra dependencies): random operation
streams are applied to shard recorders and the merge laws are checked
exactly — counters add, histograms add bucket-wise, span stats combine —
for every merge order. Values are kept integral so float addition is
exactly associative and snapshot equality can be ``==``.
"""

import itertools
import math
import random
import time

import pytest

from repro import obs
from repro.obs.recorder import N_BUCKETS, bucket_index, bucket_upper_bound


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
    """A stream of recorder operations with small shared name pools (so
    shards genuinely collide on metric names) and integral values."""
    ops = []
    for _ in range(n):
        kind = rng.choice(("counter", "histogram", "span", "gauge"))
        if kind == "counter":
            ops.append(("counter", f"c{rng.randrange(4)}", rng.randint(1, 50)))
        elif kind == "histogram":
            ops.append((
                "histogram", f"h{rng.randrange(3)}",
                rng.choice((0, 1, 3, 1024, 10**6, 10**9)) + rng.randint(0, 9),
            ))
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
        elif op[0] == "histogram":
            recorder.histogram_observe(op[1], op[2])
        elif op[0] == "gauge":
            recorder.gauge_set(op[1], op[2])
        else:
            with recorder.span(op[1]):
                wall.advance(op[2])
                cpu.advance(op[3])


def strip_gauges(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items() if key != "gauges"}


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
# Merge semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 12, 123, 1234])
def test_shard_merge_equals_serial_in_any_order(seed):
    """The core law behind cross-process snapshots: k worker shards merged
    in ANY order produce exactly the serial recording of all their ops
    (gauges excluded — they are documented last-write-wins)."""
    rng = random.Random(seed)
    shards = [random_ops(rng, rng.randint(5, 25)) for _ in range(3)]

    serial, wall, cpu = make_recorder()
    for ops in shards:
        apply_ops(serial, wall, cpu, ops)
    expected = strip_gauges(serial.snapshot())

    snapshots = []
    for ops in shards:
        recorder, shard_wall, shard_cpu = make_recorder()
        apply_ops(recorder, shard_wall, shard_cpu, ops)
        snapshots.append(recorder.snapshot())

    for order in itertools.permutations(range(len(shards))):
        parent = obs.Recorder()
        for index in order:
            parent.merge_snapshot(snapshots[index])
        assert strip_gauges(parent.snapshot()) == expected


def test_gauges_are_last_write_wins_by_merge_order():
    first = obs.Recorder()
    first.gauge_set("g", 1.0)
    second = obs.Recorder()
    second.gauge_set("g", 2.0)
    parent = obs.Recorder()
    parent.merge_snapshot(first.snapshot())
    parent.merge_snapshot(second.snapshot())
    assert parent.gauges["g"] == 2.0


def test_merge_none_is_noop_and_bad_format_raises():
    recorder = obs.Recorder()
    recorder.counter_add("c")
    before = recorder.snapshot()
    recorder.merge_snapshot(None)
    assert recorder.snapshot() == before
    with pytest.raises(ValueError):
        recorder.merge_snapshot({"format": 999})


@pytest.mark.parametrize("seed", [5, 55])
def test_merge_through_json_round_trip(seed):
    """Snapshots cross process boundaries as JSON; merging the decoded
    payload must equal merging the original."""
    import json

    rng = random.Random(seed)
    recorder, wall, cpu = make_recorder()
    apply_ops(recorder, wall, cpu, random_ops(rng, 30))
    snapshot = recorder.snapshot()
    decoded = json.loads(json.dumps(snapshot))

    direct = obs.Recorder()
    direct.merge_snapshot(snapshot)
    via_json = obs.Recorder()
    via_json.merge_snapshot(decoded)
    assert direct.snapshot() == via_json.snapshot()


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 33, 333])
def test_histogram_summary_matches_observations(seed):
    rng = random.Random(seed)
    values = [rng.randint(0, 10**9) for _ in range(rng.randint(1, 200))]
    histogram = obs.Histogram()
    for value in values:
        histogram.observe(value)
    assert histogram.count == len(values)
    assert histogram.total == sum(values)
    assert histogram.min == min(values)
    assert histogram.max == max(values)
    assert histogram.mean == sum(values) / len(values)
    assert sum(histogram.buckets.values()) == len(values)


def test_bucket_bounds_are_consistent():
    for value in (0, 1, 2, 3, 1023, 1024, 1025, 10**12, 2.0**60):
        index = bucket_index(value)
        assert 0 <= index < N_BUCKETS
        if 0 < index < N_BUCKETS - 1:
            # frexp buckets are [2**(e-1), 2**e): closed below, open above.
            assert bucket_upper_bound(index - 1) <= value < bucket_upper_bound(index)
    assert bucket_upper_bound(N_BUCKETS - 1) == math.inf
    assert bucket_index(-5.0) == 0  # negatives clamp, never crash


def test_empty_histogram_payload_merges_as_identity():
    empty = obs.Histogram()
    target = obs.Histogram()
    target.observe(7)
    before = target.to_payload()
    target.merge_payload(empty.to_payload())
    assert target.to_payload() == before


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
