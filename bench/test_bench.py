"""Unit tests of the benchmark harness: ``python -m pytest bench``.

They cover the harness's own arithmetic and bookkeeping, not the
package; the package's tests live under ``tests/``.
"""

import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Integer nanoseconds that advance only when a test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 5

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 10
        traced_leaf()
        traced_leaf()
        clock.now += 1

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 100
        traced_middle()

    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    traced_leaf()

    assert tracer.stats["leaf"] == [3, 15, 15]
    assert tracer.stats["middle"] == [1, 11, 21]
    assert tracer.stats["outer"] == [1, 100, 121]
    assert tracer.top_ns == 121 + 5
    total_self = sum(stats[1] for stats in tracer.stats.values())
    assert total_self == tracer.top_ns


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def failing():
        clock.now += 7
        raise ValueError("boom")

    traced_failing = tracer.wrap("failing", failing)

    def outer():
        clock.now += 3
        with pytest.raises(ValueError):
            traced_failing()

    tracer.wrap("outer", outer)()
    assert tracer.stats["failing"] == [1, 7, 7]
    assert tracer.stats["outer"] == [1, 3, 10]


def test_shared_prefix_adds_up():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def step():
        clock.now += 2

    first = tracer.wrap("core.stats", step)
    second = tracer.wrap("core.stats", step)
    first()
    second()
    assert tracer.stats["core.stats"] == [2, 4, 4]


@pytest.fixture
def fake_modules():
    """``benchfake_a.f`` plus a module that bound it by ``from ... import``."""
    a = types.ModuleType("benchfake_a")

    def f(x):
        return x + 1

    a.f = f

    class Owner:
        def method(self):
            return f(1)

    a.Owner = Owner
    b = types.ModuleType("benchfake_b")
    b.f = f
    sys.modules.update(benchfake_a=a, benchfake_b=b)
    yield a, b, f
    del sys.modules["benchfake_a"], sys.modules["benchfake_b"]


def test_install_patches_every_binding_and_undo_restores(fake_modules):
    a, b, f = fake_modules
    method = a.Owner.__dict__["method"]
    tracer = tracing.Tracer()
    done = tracing.install(
        tracer, [("fake.f", "benchfake_a", "f"), ("fake.method", "benchfake_a", "Owner.method")]
    )
    assert a.f is not f and b.f is a.f
    assert b.f(1) == 2 and a.f(2) == 3 and a.Owner().method() == 2
    assert tracer.stats["fake.f"][0] == 2
    assert tracer.stats["fake.method"][0] == 1
    done.undo()
    assert a.f is f and b.f is f
    assert a.Owner.__dict__["method"] is method
    assert a.Owner().method() == 2 and tracer.stats["fake.method"][0] == 1


def test_missing_targets_warn_and_report_none(fake_modules):
    tracer = tracing.Tracer()
    targets = [
        ("fake.f", "benchfake_a", "f"),
        ("gone.function", "benchfake_a", "deleted"),
        ("gone.method", "benchfake_a", "Owner.deleted"),
        ("gone.module", "benchfake_never_existed", "f"),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        done = tracing.install(tracer, targets)
    assert len(caught) == 3
    assert done.missing == ["gone.function", "gone.method", "gone.module"]
    done.undo()


def test_layer_metrics_cover_every_target_table_prefix():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    prefix = "security.attack.attack_escape"

    def body():
        clock.now += 250

    tracer.wrap(prefix, body)()
    metrics = tracing.layer_metrics(tracer, 1000, missing=["ecc.table3"])
    assert metrics[f"{prefix}.calls"] == 1
    assert metrics[f"{prefix}.self_share"] == 0.25
    assert metrics["ecc.table3.calls"] is None
    assert metrics["core.stats.calls"] == 0
    assert metrics["bench.unattributed_share"] == 0.75
    for name in metrics:
        assert len(name) <= 64


def test_emitted_metrics_match_benchmark_json():
    import worker

    end_to_end, per_layer = run.metric_units()
    layers = worker._layers(tracing.Tracer(), tracing.Installation(), 10**9, work={})
    assert set(layers) | {"trace_overhead"} == set(per_layer)
    assert set(end_to_end) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_summarize_matches_statistics_quantiles():
    summary = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary["median"] == 3.0
    assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
    assert (summary["min"], summary["max"]) == (1.0, 5.0)
    assert summary["samples"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    single = run.summarize([2.5])
    assert single["median"] == single["q1"] == single["q3"] == 2.5


def test_digest_is_canonical():
    value = {"b": np.arange(3, dtype=np.int64), "a": [1, 2.5, None, "x"], "c": {3, 1, 2}}
    reordered = {"c": {2, 3, 1}, "a": [1, 2.5, None, "x"], "b": np.arange(3, dtype=np.int64)}
    assert workloads.digest(value) == workloads.digest(reordered)
    # Pinned: golden.json depends on the encoding staying the same.
    assert workloads.digest(value) == (
        "7862481131eb700eeade49fd9c7e2573090d04b49a43d29673619e53d015e24d"
    )


def test_digest_sees_every_bit():
    assert workloads.digest(0.1 + 0.2) != workloads.digest(0.3)
    assert workloads.digest(np.zeros(2)) != workloads.digest(np.zeros(2, dtype=np.float32))
    assert workloads.digest(np.zeros((2, 1))) != workloads.digest(np.zeros((1, 2)))
    assert workloads.digest(1) != workloads.digest(1.0)
    assert workloads.digest(True) != workloads.digest(1)
    assert workloads.digest([1, 2]) != workloads.digest([2, 1])
    with pytest.raises(TypeError):
        workloads.digest(object())


def test_digest_of_dataclasses_uses_fields():
    from repro.core.series import RdtSeries

    one = RdtSeries(np.array([1.0, 2.0]), module_id="M1", row=4)
    assert workloads.digest(one) == workloads.digest(
        RdtSeries(np.array([1.0, 2.0]), module_id="M1", row=4)
    )
    assert workloads.digest(one) != workloads.digest(
        RdtSeries(np.array([1.0, 2.0]), module_id="M1", row=5)
    )


def test_failed_operations_are_recorded_not_raised():
    ops = workloads.Ops()
    assert ops.call("ok", lambda v: [], lambda: 1) == 1
    assert ops.call("raises", None, lambda: 1 / 0) is None
    ops.call("bad", lambda v: ["wrong"], lambda: 2)
    ops.fail("detected", "missed the store")
    results = ops.results()
    assert [r["problems"] for r in results] == [
        [], ["ZeroDivisionError: division by zero"], ["wrong"], ["missed the store"],
    ]
    assert results[0]["digest"] == workloads.digest(1)


def _pass(digests, problems=None, traced=False):
    return {
        "traced": traced,
        "numpy": np.__version__,
        "ops": [
            {"name": name, "digest": value, "problems": (problems or {}).get(name, [])}
            for name, value in digests.items()
        ],
    }


def test_checks_count_failed_operations(tmp_path):
    golden = {"seed": 0, "numpy": np.__version__, "workloads": {"attack": {"x": "1", "y": "2"}}}
    runner = run.Runner(0, tmp_path, golden)
    runner.passes["attack"] = [
        _pass({"x": "1", "y": "2"}),
        _pass({"x": "1", "y": "3"}),  # differs from the first pass and golden
        _pass({"x": "1", "y": "2"}, problems={"x": ["flip rate range"]}, traced=True),
    ]
    runner.crashes["attack"] = 1
    assert runner.check("attack") == (7, 3)

    other_seed = run.Runner(1, tmp_path, golden)
    other_seed.passes["attack"] = [_pass({"x": "5", "y": "6"})] * 2
    assert other_seed.check("attack") == (4, 0)
