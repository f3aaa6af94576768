"""CLI coverage for run reports: ``repro report`` and ``--trace``.

Every JSON report the CLI can emit is checked against the golden schema in
``tests/obs/golden/report_schema.json`` — the stable contract downstream
tooling (and the CI ``obs-smoke`` job) parses.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report_schema.json"


def load_schema() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_matches_schema(payload: dict) -> None:
    schema = load_schema()
    for key in schema["required"]:
        assert key in payload, f"report missing key {key!r}"
    assert payload["kind"] == schema["kind"]
    assert payload["format"] == schema["format"]
    assert payload["snapshot_format"] == schema["snapshot_format"]
    for key in schema["meta_required"]:
        assert key in payload["meta"], f"meta missing key {key!r}"
    for path, stats in payload["spans"].items():
        assert sorted(stats) == sorted(schema["span_fields"]), path
        assert stats["count"] >= 1
        assert stats["min_wall_ns"] <= stats["max_wall_ns"]
    for name, value in payload["counters"].items():
        assert isinstance(value, (int, float)), name
    # The payload must round-trip through the report loader unchanged.
    assert obs.RunReport.from_payload(payload).to_payload() == payload


def test_report_json_matches_golden_schema(capsys):
    assert main(["report", "--json", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert_matches_schema(payload)
    assert payload["meta"]["command"] == "report"
    assert payload["meta"]["seed"] == 7
    assert "report.workload" in payload["spans"]
    # The mini-workload must exercise every instrumented subsystem.
    counters = payload["counters"]
    for prefix in ("memsim.", "rdt.", "bender.", "ecc.", "fastfaults.",
                   "store.", "cache."):
        assert any(name.startswith(prefix) for name in counters), prefix
    # The campaign runs twice over one store: the second run is a hit.
    assert counters["store.hit"] >= 1


def test_report_output_file_round_trips(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(["report", "--seed", "11", "-o", str(path)]) == 0
    out = capsys.readouterr().out
    assert "report.workload" in out  # human-readable table on stdout
    loaded = obs.RunReport.load(path)
    assert_matches_schema(loaded.to_payload())
    assert loaded.meta["seed"] == 11


def test_report_of_an_older_format_is_rejected():
    """Format 1 reports carried a ``histograms`` field; no reader is kept."""
    payload = obs.RunReport.from_recorder(
        obs.Recorder(), command="report"
    ).to_payload()
    assert obs.RunReport.from_payload(payload).to_payload() == payload
    payload["format"] = 1
    payload["histograms"] = {}
    with pytest.raises(ValueError, match="unsupported run-report format 1"):
        obs.RunReport.from_payload(payload)


def test_fig14_trace_out_writes_schema_valid_report(capsys, tmp_path):
    trace_path = tmp_path / "fig14-trace.json"
    assert main([
        "fig14", "--mixes", "1", "--window", "2000", "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
        "--trace-out", str(trace_path),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(trace_path.read_text())
    assert_matches_schema(payload)
    assert payload["meta"]["command"] == "fig14"
    assert payload["meta"]["exit_code"] == 0
    assert payload["counters"]["sweep.cells"] >= 1


def test_measure_trace_reports_to_stderr(capsys):
    assert main([
        "measure", "M1", "--row", "64", "-n", "100", "--trace",
    ]) == 0
    captured = capsys.readouterr()
    assert "max/min ratio" in captured.out  # normal output untouched
    assert "rdt.measurements" in captured.err
