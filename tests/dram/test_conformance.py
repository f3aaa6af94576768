"""Golden cross-protocol conformance suite for the TimingChecker.

``tests/dram/conformance/`` holds one committed corpus per protocol:
known-legal and known-illegal command streams with the checker's exact
expected verdict — the full ordered list of ``(index, rule)``
violations, empty for legal streams. A stream is a JSON list with one
object per entry: ``{"cmd", "at", "bank"?, "row"?}`` for one command,
``{"burst", "at", "step", "count", "bank"?, "row"?}`` for a uniform
column burst and ``{"hammer": rows, "bank", "count", "t_on", "t_pre",
"at"}`` for a hammer loop. Each protocol
covers at least four timing rules with both a legal-boundary stream
(gaps exactly at the JEDEC minimum never flag) and a violating stream.

These pin the checker's observable behavior: any change to the rule
tables, the scope resolution (bank groups, HBM2 pseudo channels), or
the violation indexing shows up as a corpus diff here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dram.checker import TimingChecker
from repro.dram.commands import Command, CommandBurst, CommandKind, HammerBlock
from repro.dram.geometry import DramGeometry
from repro.dram.timing import PRESETS, rule_table
from tests.differential.harness import expand_stream

CORPUS_DIR = Path(__file__).parent / "conformance"


def _corpora():
    for path in sorted(CORPUS_DIR.glob("*.json")):
        yield path.stem, json.loads(path.read_text())


def _entries(stream):
    """A corpus stream's checker entries, in order."""
    for item in stream:
        if "cmd" in item:
            yield Command(
                CommandKind(item["cmd"]), item["at"],
                bank=item.get("bank"), row=item.get("row"),
            )
        elif "burst" in item:
            yield CommandBurst(
                CommandKind(item["burst"]), item["at"], item["step"],
                item["count"], bank=item.get("bank"), row=item.get("row"),
            )
        else:
            yield HammerBlock(
                item["bank"], tuple(item["hammer"]), item["count"],
                item["t_on"], item["t_pre"], item["at"],
            )


def _cases():
    for stem, payload in _corpora():
        for case in payload["cases"]:
            yield pytest.param(payload, case, id=f"{stem}-{case['name']}")


@pytest.mark.parametrize("payload,case", list(_cases()))
def test_conformance_verdict(payload, case):
    params = PRESETS[payload["preset"]]
    geometry = DramGeometry(**payload["geometry"])
    entries = list(_entries(case["stream"]))
    checker = TimingChecker(timing=params, geometry=geometry)
    for entry in entries:
        checker.feed(entry)
    report = checker.report
    got = [{"index": v.index, "rule": v.rule} for v in report.violations]
    assert got == case["violations"], (
        f"{payload['preset']} {case['name']}: expected "
        f"{case['violations']}, checker said:\n{report.describe()}"
    )
    assert report.n_commands == sum(1 for _ in expand_stream(entries))


def test_corpus_covers_every_protocol():
    protocols = {payload["geometry"]["protocol"] for _, payload in _corpora()}
    assert protocols == {"DDR4", "DDR5", "HBM2"}


@pytest.mark.parametrize(
    "stem,payload", list(_corpora()), ids=[s for s, _ in _corpora()]
)
def test_corpus_breadth(stem, payload):
    """Each protocol corpus exercises >= 4 rules, each with a legal and
    a violating stream, and every named rule exists in that protocol's
    rule table."""
    table = {rule.name for rule in rule_table(PRESETS[payload["preset"]])}
    legal_rules = set()
    violating_rules = set()
    for case in payload["cases"]:
        assert case["rule"] in table, (
            f"{stem}: case {case['name']} names unknown rule {case['rule']}"
        )
        if case["violations"]:
            violating_rules.update(v["rule"] for v in case["violations"])
        else:
            legal_rules.add(case["rule"])
    both = legal_rules & violating_rules
    assert len(both) >= 4, (
        f"{stem}: only {sorted(both)} have both legal and violating "
        "streams; need >= 4 rules"
    )
