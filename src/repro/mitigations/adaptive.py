"""Dynamically reconfigured mitigation (paper Sec. 6.5, direction 3).

Wraps any of the four mitigation mechanisms and rebuilds it whenever a
:class:`~repro.profiling.policy.ThresholdPolicy` moves the threshold by
more than a hysteresis band. Rebuild cost is modeled as a rank-wide stall
(flushing trackers / reprogramming mode registers), so oscillating
policies pay for their indecision.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.mitigations.base import Mitigation, PreventiveAction
from repro.profiling.policy import ThresholdPolicy

#: Rank stall charged when the wrapped mechanism is rebuilt (ns).
RECONFIGURE_STALL_NS = 1_000.0


class AdaptiveMitigation(Mitigation):
    """A mitigation whose threshold follows a policy at run time."""

    name = "Adaptive"

    def __init__(
        self,
        factory: Callable[[float], Mitigation],
        policy: ThresholdPolicy,
        check_every: int = 1024,
        hysteresis: float = 0.05,
    ):
        if check_every < 1:
            raise ConfigurationError("check_every must be >= 1")
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigurationError("hysteresis must be in [0, 1)")
        initial = policy.threshold()
        super().__init__(initial)
        self.factory = factory
        self.policy = policy
        self.check_every = check_every
        self.hysteresis = hysteresis
        self._inner = factory(initial)
        self.name = f"Adaptive({self._inner.name})"
        self._acts_since_check = 0
        self.reconfigurations = 0

    def _maybe_reconfigure(self) -> float:
        """Returns the extra rank stall if a rebuild happened."""
        target = self.policy.threshold()
        current = self.threshold
        if current > 0 and abs(target - current) / current <= self.hysteresis:
            return 0.0
        self.threshold = float(target)
        self._inner = self.factory(self.threshold)
        self.reconfigurations += 1
        return RECONFIGURE_STALL_NS

    def on_activate(self, bank: int, row: int, now: float) -> PreventiveAction:
        stall = 0.0
        self._acts_since_check += 1
        if self._acts_since_check >= self.check_every:
            self._acts_since_check = 0
            stall = self._maybe_reconfigure()
        action = self._inner.on_activate(bank, row, now)
        self.preventive_refreshes = self._inner.preventive_refreshes
        self.rank_blocks = self._inner.rank_blocks + self.reconfigurations
        if stall > 0.0:
            action.rank_block_ns += stall
        return action

    def on_refresh_window(self, now: float) -> None:
        self._inner.on_refresh_window(now)
