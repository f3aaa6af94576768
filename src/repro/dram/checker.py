"""Table-driven DRAM command-stream timing validation.

The :class:`TimingChecker` replays a command stream against the
declarative rule table its protocol induces
(:func:`repro.dram.timing.rule_table`), reporting violations with logical
command indices. The idiom follows the controller test models of real
LPDDR4/LiteX-style verification environments: the rules are plain data,
the checker is a small state machine over per-bank / per-bank-group /
per-pseudo-channel last-command times.

Two producers feed it:

* **Compiled Bender trials, always.** A compiled trial plan is a rigid
  time-translation between replays, so its legality is a property of the
  plan: ``compile_trial`` feeds the plan's stream through the full rule
  table, tFAW windows included, once per hammer-count class, and refuses
  the plan with :class:`~repro.errors.TimingViolationError` on a
  violation (see :mod:`repro.bender.compiler`).
* **The memory-system simulator, opt in.** With
  ``SystemConfig.check_timing`` (which ``run_sweep(check_timing=True)``
  and ``fig14 --check-timing`` set) every REF/PRE/ACT the loop schedules
  is checked against the rules that loop models, and the first violation
  raises.

Compressed entries keep checking cheap. A uniform column burst is
validated with a constant number of comparisons (the first command
against history, the internal step against cadence rules). A hammer
block feeds only its leading ACT/PRE pairs through the full rule walk —
enough to cover every pair class against pre-block history and, because
the loop's spacing is uniform, every later pair — then fast-forwards the
state to the loop's closed-form end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dram.commands import Command, CommandBurst, CommandKind, HammerBlock
from repro.dram.geometry import DramGeometry
from repro.dram.timing import (
    RULE_MAX_GAP,
    RULE_MIN_GAP,
    SCOPE_CROSS_GROUP,
    SCOPE_SAME_BANK,
    SCOPE_SAME_GROUP,
    TimingParams,
    TimingRule,
    rule_table,
)
from repro.errors import ConfigurationError, TimingViolationError

#: Slack for float-exact schedules: gaps that equal the rule delay up to
#: one part in 10^9 ns never flag (the interpreter schedules many
#: commands at exactly the JEDEC minimum).
EPS = 1e-9


def _tol(at: float) -> float:
    """Comparison slack for a command at absolute time ``at``.

    The base EPS plus a proportional term: hammer fast-forwards
    re-compose times as ``first_act + i * period``, which can land a few
    ULP off a scheduler's own float association once absolute times grow
    large. 1e-13 relative is ~450 double ULP of headroom while
    staying far below any physically meaningful timing margin.
    """
    return EPS + 1e-13 * abs(at)

#: Rank-level command kinds (no bank address; they occupy every pseudo
#: channel for scoped rules).
_RANK_KINDS = (CommandKind.REF, CommandKind.RFM)


@dataclass(frozen=True)
class Violation:
    """One timing-rule violation, anchored to a logical command index."""

    index: int
    rule: str
    at: float
    required: float
    actual: float
    bank: Optional[int] = None
    prev_index: Optional[int] = None

    def describe(self) -> str:
        where = f"bank {self.bank}" if self.bank is not None else "rank"
        prev = (
            f" (prev command #{self.prev_index})"
            if self.prev_index is not None else ""
        )
        return (
            f"command #{self.index} @ {self.at:.3f}ns [{where}] violates "
            f"{self.rule}: {self.actual:.3f}ns < {self.required:.3f}ns"
            f"{prev}"
        )


@dataclass
class CheckReport:
    """Aggregate outcome of one checked stream."""

    n_commands: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        if self.violations:
            first = self.violations[0]
            raise TimingViolationError(
                f"{len(self.violations)} timing violation(s); first: "
                f"{first.describe()}"
            )

    def describe(self) -> str:
        if self.ok:
            return f"{self.n_commands} commands, no timing violations"
        lines = [
            f"{self.n_commands} commands, "
            f"{len(self.violations)} violation(s):"
        ]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


class TimingChecker:
    """Streaming validator of one command stream against one rule table.

    Construct from a :class:`~repro.dram.timing.TimingParams` (the rule
    table is derived) or an explicit rule sequence; the geometry supplies
    the bank-group / pseudo-channel topology the rule scopes use.
    ``rule_names`` restricts checking to a subset — the memory-system
    simulator checks exactly the rules its model schedules for; a
    compiled Bender trial is certified against the whole table.

    One instance checks one stream: call :meth:`feed` once per entry, in
    time order.
    """

    def __init__(
        self,
        timing: Optional[TimingParams] = None,
        geometry: Optional[DramGeometry] = None,
        rules: Optional[Sequence[TimingRule]] = None,
        rule_names: Optional[Iterable[str]] = None,
    ):
        if (timing is None) == (rules is None):
            raise ConfigurationError(
                "pass exactly one of a TimingParams or an explicit rule "
                "sequence"
            )
        if rules is None:
            rules = rule_table(timing)
        if rule_names is not None:
            wanted = set(rule_names)
            unknown = wanted - {rule.name for rule in rules}
            if unknown:
                raise ConfigurationError(
                    f"rule_names not in the table: {sorted(unknown)}"
                )
            rules = [rule for rule in rules if rule.name in wanted]
        self.rules: Tuple[TimingRule, ...] = tuple(rules)
        self.geometry = geometry or DramGeometry()
        self.report = CheckReport()

        geo = self.geometry
        self._group_of = [geo.bank_group_of(b) for b in range(geo.n_banks)]
        self._chan_of = [
            geo.pseudo_channel_of(b) for b in range(geo.n_banks)
        ]
        groups_by_chan: Dict[int, set] = {}
        for bank in range(geo.n_banks):
            groups_by_chan.setdefault(self._chan_of[bank], set()).add(
                self._group_of[bank]
            )
        self._chan_groups = {
            chan: tuple(sorted(groups))
            for chan, groups in groups_by_chan.items()
        }

        self._min_gap: Dict[str, List[TimingRule]] = {}
        self._max_gap: Dict[str, List[TimingRule]] = {}
        self._windows: List[TimingRule] = []
        for rule in self.rules:
            if rule.kind == RULE_MIN_GAP:
                self._min_gap.setdefault(rule.curr, []).append(rule)
            elif rule.kind == RULE_MAX_GAP:
                self._max_gap.setdefault(rule.curr, []).append(rule)
            else:
                if rule.curr != "ACT":
                    raise ConfigurationError(
                        "window rules are only modeled for ACT commands"
                    )
                self._windows.append(rule)
        window_depth = max(
            (rule.window - 1 for rule in self._windows), default=0
        )

        # Last (time, index) per (kind, bank) / (kind, group) / (kind,
        # pseudo channel); recent ACT times per pseudo channel for the
        # window rules.
        self._last: Dict[Tuple[str, int], Tuple[float, int]] = {}
        self._group_last: Dict[Tuple[str, int], Tuple[float, int]] = {}
        self._chan_last: Dict[Tuple[str, int], Tuple[float, int]] = {}
        self._act_window: Dict[int, deque] = {
            chan: deque(maxlen=window_depth)
            for chan in self._chan_groups
        } if window_depth else {}
        self._n = 0

    # -- lookups --------------------------------------------------------

    def _candidate(
        self, rule: TimingRule, prev: str, bank: int
    ) -> Optional[Tuple[float, int]]:
        """Latest prior ``prev`` command within the rule's scope."""
        if rule.scope == SCOPE_SAME_BANK:
            return self._last.get((prev, bank))
        if rule.scope == SCOPE_SAME_GROUP:
            return self._group_last.get((prev, self._group_of[bank]))
        if rule.scope == SCOPE_CROSS_GROUP:
            chan = self._chan_of[bank]
            own = self._group_of[bank]
            best = None
            for group in self._chan_groups[chan]:
                if group == own:
                    continue
                entry = self._group_last.get((prev, group))
                if entry is not None and (best is None or entry[0] > best[0]):
                    best = entry
            return best
        return self._chan_last.get((prev, self._chan_of[bank]))

    def _note(self, kind: str, bank: int, at: float, index: int) -> None:
        """Record a banked command in every scope index."""
        entry = (at, index)
        self._last[(kind, bank)] = entry
        group_key = (kind, self._group_of[bank])
        prior = self._group_last.get(group_key)
        if prior is None or at >= prior[0]:
            self._group_last[group_key] = entry
        chan = self._chan_of[bank]
        chan_key = (kind, chan)
        prior = self._chan_last.get(chan_key)
        if prior is None or at >= prior[0]:
            self._chan_last[chan_key] = entry
        if kind == "ACT" and self._act_window:
            self._act_window[chan].append(entry)

    def _note_rank(self, kind: str, at: float, index: int) -> None:
        """Record a rank-level command as visible to every pseudo channel."""
        entry = (at, index)
        for chan in self._chan_groups:
            prior = self._chan_last.get((kind, chan))
            if prior is None or at >= prior[0]:
                self._chan_last[(kind, chan)] = entry

    # -- feeding --------------------------------------------------------

    def _violate(
        self,
        rule: TimingRule,
        index: int,
        at: float,
        actual: float,
        bank: Optional[int],
        prev_index: Optional[int],
    ) -> Violation:
        violation = Violation(
            index=index,
            rule=rule.name,
            at=at,
            required=rule.delay,
            actual=actual,
            bank=bank,
            prev_index=prev_index,
        )
        self.report.violations.append(violation)
        return violation

    def _check_command(
        self, kind: str, at: float, bank: Optional[int], index: int
    ) -> List[Violation]:
        """Full rule walk for one command; updates state."""
        found: List[Violation] = []
        if bank is None:
            # Rank-level command: only max-gap rules key off it (tREFI);
            # scoped min-gap rules with a rank-level *previous* command
            # are answered through the per-channel index.
            for rule in self._max_gap.get(kind, ()):
                prior = self._chan_last.get((rule.prev, 0))
                if prior is not None and at - prior[0] > rule.delay + _tol(at):
                    found.append(self._violate(
                        rule, index, at, at - prior[0], None, prior[1]
                    ))
            self._note_rank(kind, at, index)
            return found

        tol = _tol(at)
        for rule in self._min_gap.get(kind, ()):
            prior = self._candidate(rule, rule.prev, bank)
            if prior is None:
                continue
            gap = at - prior[0]
            # A negative gap means the stream was fed out of global time
            # order (the memory-system loop drains refreshes lazily);
            # pairwise rules only constrain commands that follow the
            # earlier one, so those pairs are skipped. Time-ordered
            # streams never produce negative gaps.
            if -tol <= gap < rule.delay - tol:
                found.append(self._violate(
                    rule, index, at, gap, bank, prior[1]
                ))
        if kind == "ACT" and self._windows:
            chan = self._chan_of[bank]
            window = self._act_window[chan]
            for rule in self._windows:
                if len(window) >= rule.window - 1:
                    oldest = window[-(rule.window - 1)]
                    span = at - oldest[0]
                    if span < rule.delay - tol:
                        found.append(self._violate(
                            rule, index, at, span, bank, oldest[1]
                        ))
        self._note(kind, bank, at, index)
        return found

    def feed(
        self, entry: Union[Command, CommandBurst, HammerBlock]
    ) -> List[Violation]:
        """Check one stream entry; returns any violations it introduced."""
        if isinstance(entry, Command):
            index = self._n
            self._n += 1
            self.report.n_commands += 1
            return self._check_command(
                entry.kind.value, entry.issued_at, entry.bank, index
            )
        if isinstance(entry, CommandBurst):
            return self._feed_burst(entry)
        if isinstance(entry, HammerBlock):
            return self._feed_hammer(entry)
        raise ConfigurationError(f"unknown stream entry {entry!r}")

    def _feed_burst(self, burst: CommandBurst) -> List[Violation]:
        kind = burst.kind.value
        base = self._n
        self._n += burst.count
        self.report.n_commands += burst.count
        # The first command carries every against-history check; the
        # uniform spacing means one internal comparison per same-kind
        # cadence rule certifies the rest.
        found = self._check_command(kind, burst.start, burst.bank, base)
        if burst.count > 1 and burst.bank is not None:
            for rule in self._min_gap.get(kind, ()):
                if rule.prev != kind or rule.scope not in (
                    SCOPE_SAME_BANK, SCOPE_SAME_GROUP
                ):
                    continue
                if burst.step < rule.delay - EPS:
                    found.append(self._violate(
                        rule, base + 1,
                        burst.start + burst.step, burst.step,
                        burst.bank, base,
                    ))
            self._note(kind, burst.bank, burst.last_at, base + burst.count - 1)
        return found

    def _feed_hammer(self, block: HammerBlock) -> List[Violation]:
        base = self._n
        total = block.total_activations
        self._n += block.n_commands
        self.report.n_commands += block.n_commands
        found: List[Violation] = []

        # Feed the leading ACT/PRE pairs through the full walk. Pair 0
        # carries every against-history check and pair 1 every in-block
        # pair class (the loop's spacing is uniform), so two pairs
        # suffice unless window rules are active — a four-ACT window can
        # mix with pre-block history through the first four activations.
        period = block.period
        prefix = min(4 if self._windows else 2, total)
        for i in range(prefix):
            act_at = block.first_act + i * period
            row = block.rows[i % len(block.rows)]
            found.extend(self._check_command(
                "ACT", act_at, block.bank, base + 2 * i
            ))
            found.extend(self._check_command(
                "PRE", act_at + block.t_on, block.bank, base + 2 * i + 1
            ))
            del row  # addresses do not participate in timing rules

        if total > prefix:
            # Fast-forward the state to the loop's closed-form end.
            last_act = block.first_act + (total - 1) * period
            self._note("ACT", block.bank, last_act, base + 2 * (total - 1))
            self._note(
                "PRE", block.bank, last_act + block.t_on,
                base + 2 * (total - 1) + 1,
            )
            if self._act_window:
                chan = self._chan_of[block.bank]
                window = self._act_window[chan]
                depth = window.maxlen or 0
                for back in range(min(depth, total) - 1, -1, -1):
                    i = total - 1 - back
                    window.append(
                        (block.first_act + i * period, base + 2 * i)
                    )
        return found
