"""Tests for the sharded, cached Fig. 14 sweep runner."""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memsim.metrics import normalized_weighted_speedup
from repro.memsim.sweep import SweepCache, SweepResult, SweepSpec, run_sweep
from repro.memsim.system import MemorySystem
from repro.mitigations import apply_guardband, build_mitigation
from tests.differential.harness import reference_memsim_run

#: A grid small enough for test runtimes but with >1 of everything.
SPEC = SweepSpec(
    mitigations=("Graphene", "MINT"),
    rdts=(128.0,),
    margins=(0.0, 0.50),
    n_mixes=2,
    window_ns=10_000.0,
)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SPEC)


def oracle_sweep(spec, checker=None):
    """``spec``'s per-mix speedups from the per-request oracle, running
    the systems in the sweep's order: baselines first, then cells."""
    config = spec.config()
    mixes = spec.mixes()
    baselines = {
        mix.name: reference_memsim_run(MemorySystem(mix, config), checker)
        for mix in mixes
    }
    per_mix = {}
    for rdt, margin, name in spec.cells():
        threshold = apply_guardband(rdt, margin)
        per_mix[(rdt, margin, name)] = {
            mix.name: normalized_weighted_speedup(
                reference_memsim_run(
                    MemorySystem(
                        mix, config, build_mitigation(name, threshold)
                    ),
                    checker,
                ),
                baselines[mix.name],
            )
            for mix in mixes
        }
    return per_mix


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(mitigations=())
    with pytest.raises(ConfigurationError):
        SweepSpec(n_mixes=0)
    with pytest.raises(TypeError):
        SweepSpec(engine="reference")  # one simulation loop, no choice
    with pytest.raises(ConfigurationError):
        SweepSpec(margins=(1.5,))  # invalid guardband fails eagerly
    with pytest.raises(SimulationError):
        SweepSpec(window_ns=float("nan"))  # so does the system config


def test_cells_cover_grid_in_order():
    cells = SPEC.cells()
    assert cells == [
        (128.0, 0.0, "Graphene"),
        (128.0, 0.0, "MINT"),
        (128.0, 0.50, "Graphene"),
        (128.0, 0.50, "MINT"),
    ]


def test_sweep_shape_and_values(sweep):
    assert set(sweep.per_mix) == set(SPEC.cells())
    for cell, mix_speedups in sweep.per_mix.items():
        assert set(mix_speedups) == {"mix00", "mix01"}
        for value in mix_speedups.values():
            assert 0.0 < value <= 1.5
    # Geomean accessor agrees with the table view.
    table = sweep.table()
    for rdt, margin, name in SPEC.cells():
        assert table[(rdt, margin, name)] == sweep.speedup(rdt, margin, name)


def test_engines_bit_identical(sweep):
    assert oracle_sweep(SPEC) == sweep.per_mix


class CommandRecorder:
    """Stands in for the TimingChecker: records every command fed."""

    def __init__(self):
        self.commands = []

    def feed(self, entry):
        self.commands.append(entry)
        return []


def test_checked_sweep_feeds_the_oracle_command_stream(monkeypatch):
    from repro.dram.checker import TIMING_CHECK_ENV_VAR
    from repro.dram.commands import CommandKind

    spec = SweepSpec(
        mitigations=("PARA", "Graphene"), rdts=(128.0,), margins=(0.0,),
        n_mixes=2, window_ns=5_000.0,
    )
    fed = CommandRecorder()
    monkeypatch.setattr(
        "repro.memsim.system._checker_for", lambda config: fed
    )
    monkeypatch.setenv(TIMING_CHECK_ENV_VAR, "1")
    checked = run_sweep(spec)

    expected = CommandRecorder()
    assert oracle_sweep(spec, expected) == checked.per_mix
    assert fed.commands == expected.commands
    kinds = {command.kind for command in fed.commands}
    assert kinds == {CommandKind.REF, CommandKind.PRE, CommandKind.ACT}


@pytest.mark.parametrize("n_jobs", [0, 2])
def test_run_sweep_runs_in_one_process(n_jobs):
    """``n_jobs`` survives only as ``None``/``1`` for older callers."""
    with pytest.raises(ConfigurationError):
        run_sweep(SPEC, n_jobs=n_jobs)


def test_cache_roundtrip(sweep, tmp_path):
    cache = SweepCache(tmp_path)
    first = run_sweep(SPEC, cache=cache)
    assert first.per_mix == sweep.per_mix
    assert cache.load(cache.key(SPEC)) is not None
    # A hit returns the stored speedups without recomputing.
    second = run_sweep(SPEC, cache=cache)
    assert second.per_mix == sweep.per_mix
    # A different recipe is a clean miss.
    other = replace(SPEC, window_ns=12_000.0)
    assert cache.load(cache.key(other)) is None


def _inject_raw(cache, key, blob, kind="sweep"):
    """Plant a raw payload blob under ``key`` with a matching checksum
    (tampered/version-skewed entry: integrity passes, decoding fails)."""
    import sqlite3
    import time

    from repro.store.db import payload_checksum

    store = cache.result_store
    store._ensure_created()
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "INSERT OR REPLACE INTO results "
            "(key, kind, checksum, payload, nbytes, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (key, kind, payload_checksum(blob), blob, len(blob),
             time.time()),
        )


def test_cache_corruption_degrades_to_miss(sweep, tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(SPEC, cache=cache)
    _inject_raw(cache, cache.key(SPEC), b"{not json")
    assert cache.load(cache.key(SPEC)) is None
    recomputed = run_sweep(SPEC, cache=cache)  # recomputes and re-stores
    assert recomputed.per_mix == sweep.per_mix
    assert cache.load(cache.key(SPEC)) is not None


def test_cache_corruption_is_counted_and_evicted(sweep, tmp_path):
    from repro import obs

    cache = SweepCache(tmp_path)
    run_sweep(SPEC, cache=cache)
    key = cache.key(SPEC)
    for blob in (
        b"{not json",                    # truncated writer
        b"[]",                           # wrong payload root
        b'{"kind": "something-else"}',   # wrong entry kind
        b'{"kind": "fig14-sweep"}',      # right kind, missing body
    ):
        _inject_raw(cache, key, blob)
        with obs.tracing() as recorder:
            assert cache.load(key) is None
        assert recorder.counters.get("cache.corrupt") == 1, blob
        assert "cache.hit" not in recorder.counters, blob
        assert not cache.has(key), blob  # evicted from the store

    with obs.tracing() as recorder:
        recomputed = run_sweep(SPEC, cache=cache)
    assert recomputed.per_mix == sweep.per_mix
    assert recorder.counters.get("cache.miss") == 1
    assert recorder.counters.get("cache.store") == 1

    with obs.tracing() as recorder:
        assert run_sweep(SPEC, cache=cache).per_mix == sweep.per_mix
    assert recorder.counters.get("cache.hit") == 1


def test_payload_roundtrip(sweep):
    payload = json.loads(json.dumps(sweep.to_payload()))
    restored = SweepResult.from_payload(payload)
    assert restored.spec == sweep.spec
    assert restored.per_mix == sweep.per_mix


def test_cache_resolve_env(monkeypatch, tmp_path):
    monkeypatch.setenv("VRD_STORE_PATH", str(tmp_path / "env" / "db.sqlite"))
    cache = SweepCache.resolve()
    assert cache is not None and cache.root == tmp_path / "env"
    assert cache.result_store.path == tmp_path / "env" / "db.sqlite"
    monkeypatch.setenv("VRD_STORE_PATH", "")
    assert SweepCache.resolve() is None
    explicit = SweepCache.resolve(tmp_path / "explicit")
    assert explicit is not None and explicit.root == tmp_path / "explicit"
