"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.store import FORMAT_VERSION


def test_devices(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "M1" in out and "Chip0" in out
    assert "Table 1" in out


def test_measure(capsys):
    assert main(["measure", "M1", "--row", "64", "-n", "200"]) == 0
    out = capsys.readouterr().out
    assert "min appears" in out
    assert "max/min ratio" in out


def test_measure_with_voltage(capsys):
    assert main([
        "measure", "M1", "--row", "64", "-n", "100", "--voltage", "2.2",
    ]) == 0
    assert "2.2V" in capsys.readouterr().out


def test_profile(capsys):
    assert main(["profile", "H2", "--rows-per-block", "1", "-n", "200"]) == 0
    out = capsys.readouterr().out
    assert "VRD profile" in out
    assert "median P(find min)" in out


def test_profile_saves_campaign(capsys, tmp_path):
    from repro.core.store import load_campaign

    path = tmp_path / "h2.json"
    assert main([
        "profile", "H2", "--rows-per-block", "1", "-n", "100",
        "--output", str(path),
    ]) == 0
    assert "saved" in capsys.readouterr().out
    restored = load_campaign(path)
    assert restored.module_id == "H2"
    assert len(restored) > 0


def test_analyze_saved_campaign(capsys, tmp_path):
    path = tmp_path / "h2.json"
    assert main([
        "profile", "H2", "--rows-per-block", "1", "-n", "100",
        "--output", str(path),
    ]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimum-RDT identification" in out
    assert "CV S-curve" in out


@pytest.mark.parametrize("content, problem", [
    (
        '{"format_version": 1, "module_id": "H2", "observations": '
        '[{"bank": 0, "row": 3, "series": {"values": [100.0, null]}}]}',
        "unsupported campaign format version 1 "
        f"(expected {FORMAT_VERSION})",
    ),
    ("{not json", "not a campaign file"),
    ("[]", "must be a JSON object"),
    (f'{{"format_version": {FORMAT_VERSION}}}', "malformed campaign payload"),
], ids=["format-1", "not-json", "wrong-root", "missing-body"])
def test_analyze_rejects_unreadable_campaign(capsys, tmp_path, content,
                                             problem):
    path = tmp_path / "old.json"
    path.write_text(content)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert problem in line
    assert "profile --output" in line


def test_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "5/5 checks passed" in out


def test_table3_default_and_custom(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "7.63e-05" in out  # the paper's 5 / 65536 BER
    assert main(["table3", "--ber", "1e-3"]) == 0
    assert "1.00e-03" in capsys.readouterr().out


def test_testtime(capsys):
    assert main(["testtime"]) == 0
    out = capsys.readouterr().out
    assert "rowhammer_100k" in out


def test_attack_exit_codes(capsys):
    # Graphene with margin: survives => exit 0.
    assert main([
        "attack", "M1", "--kind", "graphene", "--row", "80",
        "--profile-n", "5", "--margin", "0.1", "--windows", "200",
    ]) == 0
    assert "survived" in capsys.readouterr().out
    # No mitigation: flips => exit 1.
    assert main([
        "attack", "M1", "--kind", "none", "--row", "80", "--windows", "5",
    ]) == 1
    assert "FLIPPED" in capsys.readouterr().out


#: A tiny run of every subcommand that takes ``--check-timing``.
CHECKED_RUNS = {
    "fig14": ["fig14", "--mixes", "1", "--window", "2000", "--no-cache"],
}


def _built_checkers(monkeypatch) -> list:
    """Collects every TimingChecker built from now on."""
    from repro.dram.checker import TimingChecker

    built = []
    original_init = TimingChecker.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TimingChecker, "__init__", recording_init)
    return built


def test_check_timing_flag_feeds_the_checker(monkeypatch, capsys):
    """A subcommand offers ``--check-timing`` only if its run feeds DRAM
    commands to a :class:`~repro.dram.checker.TimingChecker`."""
    import argparse

    from repro.cli import _build_parser

    built = _built_checkers(monkeypatch)
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    checked = sorted(
        name for name, command in subparsers.choices.items()
        if "--check-timing" in command._option_string_actions
    )
    assert checked == sorted(CHECKED_RUNS)
    for name in checked:
        built.clear()
        assert main(CHECKED_RUNS[name] + ["--check-timing"]) == 0
        fed = sum(checker.report.n_commands for checker in built)
        assert fed > 0, f"{name} --check-timing fed no command"
    capsys.readouterr()


def test_check_timing_simulates_a_stored_sweep(monkeypatch, capsys, tmp_path):
    """A checked ``fig14`` run reads no stored sweep: on a store warmed by
    an unchecked run it still feeds every command to the checker, and
    prints the same table."""
    built = _built_checkers(monkeypatch)
    run = ["fig14", "--mixes", "1", "--window", "2000",
           "--cache-dir", str(tmp_path)]
    assert main(run) == 0
    warm = capsys.readouterr().out
    assert main(run + ["--check-timing"]) == 0
    assert sum(checker.report.n_commands for checker in built) > 0
    assert capsys.readouterr().out == warm


def test_checked_sweep_opens_the_store_before_it_simulates(
    monkeypatch, capsys, tmp_path
):
    """A checked run reads no stored sweep, but a store that cannot be
    opened still fails before the first cell is simulated."""
    from repro.memsim import sweep

    def simulate(*args):
        raise AssertionError("a cell was simulated")

    monkeypatch.setattr(sweep, "_sweep_cells", simulate)
    (tmp_path / "results.sqlite").mkdir()
    assert main(["fig14", "--mixes", "1", "--window", "2000",
                 "--cache-dir", str(tmp_path), "--check-timing"]) == 2
    assert "cannot open the result store" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["measure", "M1", "--row", "100", "--adaptive"],
    ["measure", "M1", "--budget", "50"],
    ["profile", "M1", "--confidence", "0.9"],
    ["profile", "M1", "--precision", "0.1"],
])
def test_adaptive_schedule_flags_are_gone(capsys, argv):
    """The adaptive schedule's options are argparse errors (exit 2)."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measure", "M1", "--row", "-1", "-n", "10"],
    ["fig14", "--mixes", "0", "--window", "2000", "--no-cache"],
    ["table3", "--ber", "2"],
    ["attack", "M1", "--windows", "0"],
    ["attack", "M1", "--margin", "1"],
    ["attack", "M1", "--margin", "-0.1"],
    ["analyze", "{tmp}/nope.json"],
    ["analyze", "{tmp}"],
    ["analyze", "{tmp}/latin1.json"],
    ["profile", "M1", "--rows-per-block", "1", "-n", "20", "--no-cache",
     "-o", "{tmp}/missing/x.json"],
    ["fig14", "--mixes", "1", "--window", "nan", "--no-cache"],
    ["fig14", "--mixes", "1", "--window", "inf", "--no-cache"],
    ["fig14", "--mixes", "1", "--window", "2000",
     "--cache-dir", "{tmp}/unopenable"],
    ["fig14", "--mixes", "1", "--window", "2000",
     "--cache-dir", "{tmp}/unopenable", "--check-timing"],
])
def test_library_error_prints_one_line_and_exits_2(capsys, tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes(b'{"module_id": "\xe9"}')
    # A store path that is a directory cannot be opened.
    (tmp_path / "unopenable" / "results.sqlite").mkdir(parents=True)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro {argv[0]}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_store_prune_command(capsys, tmp_path):
    from repro.store import KIND_CAMPAIGN, KIND_SWEEP, ResultStore

    store = str(tmp_path / "results.sqlite")
    results = ResultStore(store)
    results.put("c", KIND_CAMPAIGN, {"module_id": "M1"})
    for key in ("s1", "s2", "s3"):
        results.put(key, KIND_SWEEP, {})

    # Refuses a filterless wipe.
    assert main(["store", "prune", "--store", store]) == 1
    assert "refusing" in capsys.readouterr().err

    assert main(["store", "prune", "--store", store, "--kind", "sweep",
                 "--older-than", "1"]) == 0
    assert "pruned 0 sweep entries" in capsys.readouterr().out

    assert main(["store", "prune", "--store", store, "--kind", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "pruned 3 sweep entries" in out
    assert "store now holds 1 entries" in out
    assert main(["store", "stats", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "sweep" not in out
    assert "campaign" in out


def test_store_commands_reset_a_malformed_file(capsys, tmp_path):
    """``store stats`` and ``store prune`` on a file that is not a
    database reset it and report an empty store, with exit 0."""
    path = tmp_path / "results.sqlite"
    for junk in (b"not a database\n" * 64, b"SQLite format 3\x00\x10"):
        path.write_bytes(junk)
        assert main(["store", "stats", "--store", str(path)]) == 0
        assert "total  0" in capsys.readouterr().out
        path.write_bytes(junk)
        assert main(["store", "prune", "--store", str(path),
                     "--kind", "sweep"]) == 0
        assert "pruned 0 sweep entries; store now holds 0 entries" in (
            capsys.readouterr().out
        )


@pytest.mark.parametrize("age", ["-1", "nan", "inf"])
def test_store_prune_rejects_bad_age_without_deleting(capsys, tmp_path, age):
    from repro.store import KIND_CAMPAIGN, KIND_SWEEP, ResultStore

    path = tmp_path / "results.sqlite"
    store = ResultStore(path)
    store.put("c", KIND_CAMPAIGN, {})
    store.put("s", KIND_SWEEP, {})
    for extra in ([], ["--kind", "sweep"]):
        assert main(["store", "prune", "--store", str(path),
                     "--older-than", age, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "--older-than" in captured.err
    assert store.stats()["per_kind"] == {KIND_CAMPAIGN: 1, KIND_SWEEP: 1}


@pytest.mark.parametrize("argv", [
    ["measure", "M1", "-n", "300000000"],
    ["measure", "M1", "-n", "0"],
    ["measure", "M1", "-n", "300000000", "--seed", "5"],
    ["profile", "M1", "-n", "1000001"],
    ["profile", "M1", "-n", "-5", "--no-cache"],
    ["profile", "M1", "--rows-per-block", "0"],
    ["profile", "M1", "--rows-per-block", "257", "-n", "10"],
    ["profile", "M1", "--rows-per-block", "4", "-n", "1000000"],
    ["profile", "M1", "--rows-per-block", "256", "-n", "20000", "--seed", "5"],
    ["attack", "M1", "--windows", "10000001"],
    ["attack", "M1", "--windows", "1000000000"],
    ["attack", "M1", "--profile-n", "0"],
    ["attack", "M1", "--profile-n", "10000001"],
])
def test_measurement_count_outside_documented_range(capsys, argv):
    """Checked before any work: one line on stderr and exit 2, even for a
    count whose series would not fit in memory or would run for hours."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"repro {argv[0]}: ")
    assert " must be between 1 and " in captured.err or (
        "--rows-per-block x -n must be at most 3,000,000" in captured.err
    )


#: Each command's documented ranges, as its ``--help`` states them.
DOCUMENTED_RANGES = {
    "measure": ["1 to 10,000,000"],
    "profile": ["1 to 1,000,000", "1 to 256", "at most 3,000,000"],
    "attack": [
        "1 to 10,000,000 (default 2000)", "1 to 10,000,000 (default 5)",
        "in [0, 1) (default 0)",
    ],
}


def test_measurement_range_is_documented(capsys):
    for command, phrases in DOCUMENTED_RANGES.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for phrase in phrases:
            assert phrase in text, (command, phrase)
