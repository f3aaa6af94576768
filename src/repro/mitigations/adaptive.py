"""Dynamically reconfigured mitigation (paper Sec. 6.5, direction 3).

Wraps any of the mitigation mechanisms and rebuilds it whenever a
:class:`~repro.profiling.policy.ThresholdPolicy` moves the threshold by
more than a hysteresis band. Rebuild cost is modeled as a rank-wide stall
(flushing trackers / reprogramming mode registers), so oscillating
policies pay for their indecision.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mitigations.base import Action, Mitigation
from repro.profiling.policy import ThresholdPolicy

#: Rank stall charged when the wrapped mechanism is rebuilt (ns).
RECONFIGURE_STALL_NS = 1_000.0

#: Activations between two policy checks.
CHECK_EVERY = 1024

#: Relative threshold change a policy check ignores.
HYSTERESIS = 0.05


class AdaptiveMitigation(Mitigation):
    """A mitigation whose threshold follows a policy at run time.

    It forwards the epoch protocol to the wrapped mechanism, whose danger
    set is this wrapper's (one set object across rebuilds). The budget is
    capped at the activations left before the next policy check, so the
    check's activation is always stepped. A rebuilt mechanism starts with
    empty tables and the counts of the one it replaces.
    """

    name = "Adaptive"

    def __init__(
        self, factory: Callable[[float], Mitigation], policy: ThresholdPolicy
    ):
        initial = policy.threshold()
        super().__init__(initial)
        self.factory = factory
        self.policy = policy
        self.check_every = CHECK_EVERY
        self.hysteresis = HYSTERESIS
        self._inner = factory(initial)
        self._inner.danger = self.danger
        self.name = f"Adaptive({self._inner.name})"
        self.danger_by_bank = self._inner.danger_by_bank
        self._acts_since_check = 0
        self.reconfigurations = 0

    def start(self, n_banks: int, n_rows: int) -> None:
        self.n_banks = n_banks
        self.n_rows = n_rows
        self.preventive_refreshes = 0
        self.rank_blocks = 0
        self._acts_since_check = 0
        self.reconfigurations = 0
        self._inner.start(n_banks, n_rows)

    def _maybe_reconfigure(self) -> float:
        """Returns the extra rank stall if a rebuild happened."""
        target = self.policy.threshold()
        current = self.threshold
        if abs(target - current) / current <= self.hysteresis:
            return 0.0
        self.threshold = float(target)
        retired = self._inner
        inner = self.factory(self.threshold)
        inner.danger = self.danger
        inner.start(self.n_banks, self.n_rows)
        inner.preventive_refreshes = retired.preventive_refreshes
        inner.rank_blocks = retired.rank_blocks
        self._inner = inner
        self.reconfigurations += 1
        return RECONFIGURE_STALL_NS

    def budget(self) -> int:
        inner = self._inner.budget()
        left = self.check_every - 1 - self._acts_since_check
        return inner if inner < left else left

    def on_activate_many(self, banks, rows) -> None:
        self._acts_since_check += len(banks)
        self._inner.on_activate_many(banks, rows)

    def step(self, bank: int, row: int) -> Optional[Action]:
        stall = 0.0
        self._acts_since_check += 1
        if self._acts_since_check >= self.check_every:
            self._acts_since_check = 0
            stall = self._maybe_reconfigure()
        inner = self._inner
        action = inner.step(bank, row)
        if stall > 0.0:
            if action is None:
                action = ([], stall, ())
            else:
                action = (action[0], action[1] + stall, action[2])
        if action is not None:
            self.preventive_refreshes = inner.preventive_refreshes
            self.rank_blocks = inner.rank_blocks + self.reconfigurations
        return action

    def on_refresh_window(self) -> None:
        self._inner.on_refresh_window()
