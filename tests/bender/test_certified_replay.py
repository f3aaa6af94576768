"""Certified checked replays must agree with the full per-command walk.

With ``VRD_TIMING_CHECK=1``, a Bender trial plan's first replay feeds every
command through the :class:`~repro.dram.checker.TimingChecker`; later
replays of the same rigid plan are validated through junction checks and
logged as :class:`~repro.dram.commands.RepeatBlock` entries. The ground
truth is the fully expanded stream: re-checking every individual command
of the recorded log with a fresh checker must reach the same verdict and
the same command count.
"""

import pytest

from repro.bender.host import DramBender
from repro.bender.interpreter import CHECKED_RULES
from repro.core.config import TestConfig
from repro.core.patterns import CHECKERED0
from repro.dram.checker import TimingChecker
from repro.dram.commands import (
    Command,
    CommandKind,
    CommandLog,
    RepeatBlock,
)
from repro.errors import ConfigurationError
from tests.conftest import make_module


def _checked_bender(monkeypatch, **kwargs):
    monkeypatch.setenv("VRD_TIMING_CHECK", "1")
    module = make_module(**kwargs)
    module.disable_interference_sources()
    return DramBender(module, init_radius=4)


def _run_sweep(bender, counts):
    module = bender.module
    config = TestConfig(CHECKERED0, t_agg_on_ns=module.timing.tRAS)
    for count in counts:
        bender.run_trial(0, 40, config.pattern, count, config.t_agg_on_ns)


def test_certified_replays_match_full_walk(monkeypatch):
    bender = _checked_bender(monkeypatch)
    _run_sweep(bender, [50, 120, 80, 0, 200, 200])
    log = bender.interpreter.log

    # The fast path must actually engage after the first full-walk replay.
    repeats = [e for e in log.entries if isinstance(e, RepeatBlock)]
    assert repeats, "no certified replays were recorded"

    # Ground truth: expand every entry (repeats included) and re-check
    # each command individually with a fresh checker over the same rules.
    oracle = TimingChecker(
        timing=bender.module.timing,
        geometry=bender.module.geometry,
        rule_names=CHECKED_RULES,
    )
    for command in log.iter_commands():
        violations = oracle.feed(command)
        assert not violations, violations
    assert oracle.report.n_commands == log.n_commands
    assert bender.interpreter._checker.report.n_commands == log.n_commands


def test_certified_log_round_trips(monkeypatch):
    bender = _checked_bender(monkeypatch)
    _run_sweep(bender, [60, 90, 90])
    log = bender.interpreter.log
    assert any(isinstance(e, RepeatBlock) for e in log.entries)

    clone = CommandLog.from_payload(log.to_payload())
    assert clone.n_commands == log.n_commands
    original = [(c.kind, c.issued_at, c.bank, c.row) for c in log.iter_commands()]
    restored = [(c.kind, c.issued_at, c.bank, c.row) for c in clone.iter_commands()]
    assert restored == original


def test_repeat_block_expansion_shifts_times():
    log = CommandLog()
    log.command(CommandKind.ACT, 0.0, bank=0, row=3)
    log.command(CommandKind.PRE, 35.0, bank=0)
    log.append(RepeatBlock(0, 2, 100.0, 2))
    times = [c.issued_at for c in log.iter_commands()]
    assert times == [0.0, 35.0, 100.0, 135.0]
    assert log.n_commands == 4


def test_feed_rejects_repeat_blocks():
    checker = TimingChecker(timing=make_module().timing)
    with pytest.raises(ConfigurationError):
        checker.feed(RepeatBlock(0, 1, 10.0, 1))
