"""Tests for the sharded, cached Fig. 14 sweep runner."""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memsim.metrics import normalized_weighted_speedup
from repro.memsim.sweep import SweepResult, SweepSpec, run_sweep, sweep_key
from repro.memsim.system import CoreStream, MemorySystem
from repro.mitigations import apply_guardband, build_mitigation
from repro.store import DEFAULT_STORE_FILENAME, KIND_SWEEP, ResultStore
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
    from repro.dram.commands import CommandKind

    spec = SweepSpec(
        mitigations=("PARA", "Graphene"), rdts=(128.0,), margins=(0.0,),
        n_mixes=2, window_ns=5_000.0,
    )
    fed = CommandRecorder()
    monkeypatch.setattr(
        "repro.memsim.system._checker_for", lambda config: fed
    )
    checked = run_sweep(spec, check_timing=True)

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


def _load(store, spec=SPEC):
    return store.load(sweep_key(spec), KIND_SWEEP, SweepResult.from_payload)


def test_cache_roundtrip(sweep, tmp_path):
    store = ResultStore(tmp_path / DEFAULT_STORE_FILENAME)
    first = run_sweep(SPEC, cache=store)
    assert first.per_mix == sweep.per_mix
    assert _load(store) is not None
    # A hit returns the stored speedups without recomputing.
    second = run_sweep(SPEC, cache=store)
    assert second.per_mix == sweep.per_mix
    # A different recipe is a clean miss.
    assert _load(store, replace(SPEC, window_ns=12_000.0)) is None


def _inject_raw(store, key, blob, kind="sweep"):
    """Plant a raw payload blob under ``key`` with a matching checksum
    (tampered/version-skewed entry: integrity passes, decoding fails)."""
    import sqlite3

    from repro.store.db import payload_checksum

    store.put(key, kind, {})
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "UPDATE results SET payload = ?, checksum = ? WHERE key = ?",
            (blob, payload_checksum(blob), key),
        )


def test_cache_corruption_degrades_to_miss(sweep, tmp_path):
    store = ResultStore(tmp_path / DEFAULT_STORE_FILENAME)
    run_sweep(SPEC, cache=store)
    _inject_raw(store, sweep_key(SPEC), b"{not json")
    assert _load(store) is None
    recomputed = run_sweep(SPEC, cache=store)  # recomputes and re-stores
    assert recomputed.per_mix == sweep.per_mix
    assert _load(store) is not None


def test_cache_corruption_is_counted_and_evicted(sweep, tmp_path):
    from repro import obs

    store = ResultStore(tmp_path / DEFAULT_STORE_FILENAME)
    run_sweep(SPEC, cache=store)
    key = sweep_key(SPEC)
    for blob in (
        b"{not json",                    # truncated writer
        b"[]",                           # wrong payload root
        b'{"kind": "something-else"}',   # wrong entry kind
        b'{"kind": "fig14-sweep"}',      # right kind, missing body
    ):
        _inject_raw(store, key, blob)
        with obs.tracing() as recorder:
            assert _load(store) is None
        assert recorder.counters.get("cache.corrupt") == 1, blob
        assert "cache.hit" not in recorder.counters, blob
        # Evicted from the store.
        assert store.fetch(key, KIND_SWEEP) == (None, "miss"), blob

    with obs.tracing() as recorder:
        recomputed = run_sweep(SPEC, cache=store)
    assert recomputed.per_mix == sweep.per_mix
    assert recorder.counters.get("cache.miss") == 1
    assert recorder.counters.get("cache.store") == 1

    with obs.tracing() as recorder:
        assert run_sweep(SPEC, cache=store).per_mix == sweep.per_mix
    assert recorder.counters.get("cache.hit") == 1


def test_payload_roundtrip(sweep):
    payload = json.loads(json.dumps(sweep.to_payload()))
    restored = SweepResult.from_payload(payload)
    assert restored.spec == sweep.spec
    assert restored.per_mix == sweep.per_mix


def test_cache_resolve_env(monkeypatch, tmp_path):
    """``fig14`` resolves its store like every cached command."""
    monkeypatch.setenv("VRD_STORE_PATH", str(tmp_path / "env" / "db.sqlite"))
    store = ResultStore.resolve()
    assert store is not None
    assert store.path == tmp_path / "env" / "db.sqlite"
    run_sweep(SPEC, cache=store)
    assert _load(store) is not None
    monkeypatch.setenv("VRD_STORE_PATH", "")
    assert ResultStore.resolve() is None
    explicit = ResultStore.resolve(tmp_path / "explicit")
    assert explicit.path == tmp_path / "explicit" / DEFAULT_STORE_FILENAME


#: The Fig. 14 grid the benchmark harness's ``implications`` workload
#: sweeps at its seed 0.
BENCH_SPEC = SweepSpec(
    mitigations=("Graphene", "PRAC", "PARA", "MINT"),
    rdts=(1024.0, 128.0),
    margins=(0.0, 0.10, 0.25, 0.50),
    n_mixes=3,
    seed=11,
)


@pytest.mark.parametrize("rdt, margins, backs_off", [
    (1024.0, (0.0, 0.10), False),  # thresholds 1024 and 921.6
    (1024.0, (0.25, 0.50), False),
    (128.0, (0.0, 0.10), False),
    (128.0, (0.25, 0.50), True),  # back-off at 64 fires in every mix
])
def test_prac_cells_with_equal_backoff_are_duplicates(rdt, margins, backs_off):
    """A PRAC run depends on its threshold only through ``backoff_at``:
    two grid cells that quantize to the same back-off give identical
    results on every mix. (MINT cells with equal ``rfm_every`` do not:
    ``Mint.start`` seeds its draws with ``int(threshold)``.)"""
    config = BENCH_SPEC.config()
    built = [build_mitigation("PRAC", apply_guardband(rdt, margin))
             for margin in margins]
    assert built[0].threshold != built[1].threshold
    assert built[0].backoff_at == built[1].backoff_at
    for mix in BENCH_SPEC.mixes():
        streams = [
            CoreStream(source) for source in MemorySystem(mix, config)._generators
        ]
        first, second = (
            MemorySystem(mix, config, prac).run(streams) for prac in built
        )
        assert first == second
        assert (first.rank_blocks > 0) == backs_off
