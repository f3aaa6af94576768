"""PARA: probabilistic adjacent-row activation (Kim et al., ISCA 2014).

Stateless: every activation refreshes the aggressor's neighbors with a
small probability p. For a threshold T, p must satisfy
``(1 - p)^T <= P_fail`` so an attacker cannot reach T activations without a
refresh except with negligible probability; hence ``p ~ ln(1/P_fail) / T``
and the overhead grows inversely with the configured threshold.
"""

from __future__ import annotations

from repro.mitigations.base import Mitigation, PreventiveAction, neighbors_of
from repro.rng import derive


class Para(Mitigation):
    """Probabilistic neighbor refresh."""

    name = "PARA"

    def __init__(
        self,
        threshold: float,
        failure_probability: float = 1e-10,
        seed: int = 0,
    ):
        super().__init__(threshold)
        # (1-p)^T = P_fail  =>  p = 1 - P_fail^(1/T)
        self.p = min(1.0, 1.0 - failure_probability ** (1.0 / self.threshold))
        self._rng = derive(seed, "para", int(threshold))

    def on_activate(self, bank: int, row: int, now: float) -> PreventiveAction:
        if self._rng.random() < self.p:
            return self._count_action(
                PreventiveAction(victim_refreshes=neighbors_of(bank, row))
            )
        return PreventiveAction()


def para_probability(threshold: float, failure_probability: float = 1e-10) -> float:
    """The p PARA needs for a given threshold (exposed for analysis)."""
    return min(1.0, 1.0 - failure_probability ** (1.0 / threshold))
