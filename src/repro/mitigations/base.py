"""Mitigation interface shared by Graphene, PRAC, PARA, and MINT."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigurationError

#: Duration of an RFM / back-off rank stall (DDR5 tRFM-class command, ns).
RFM_BLOCK_NS = 350.0

#: Duration of one victim-row refresh (an ACT/PRE pair, ns).
VICTIM_REFRESH_NS = 46.0


def apply_guardband(rdt: float, margin: float) -> float:
    """Threshold after applying a safety margin (Sec. 6.3).

    A 25% guardband on RDT=128 configures the mitigation for 96.
    """
    if rdt <= 0:
        raise ConfigurationError("RDT must be positive")
    if not 0.0 <= margin < 1.0:
        raise ConfigurationError(f"margin {margin} must be in [0, 1)")
    return rdt * (1.0 - margin)


@dataclass
class PreventiveAction:
    """What a mitigation wants done in response to one activation."""

    #: Victim rows to preventively refresh: (bank, row) pairs, each costing
    #: one ACT/PRE on that bank.
    victim_refreshes: List[Tuple[int, int]] = field(default_factory=list)
    #: Rank-wide stall (RFM command or PRAC back-off), ns.
    rank_block_ns: float = 0.0
    #: Per-bank stalls (throttling-class mitigations): (bank, ns) pairs.
    bank_delays: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return (
            not self.victim_refreshes
            and self.rank_block_ns == 0.0
            and not self.bank_delays
        )


class Mitigation(ABC):
    """A preventive read-disturbance mitigation.

    :meth:`on_activate` defines the reaction to one row activation and
    :meth:`on_refresh_window` the tREFW boundary (tracking-window reset,
    as the real mechanisms synchronize with refresh). The memory system
    drives them through an array-backed batcher
    (:mod:`repro.mitigations.fast`) where one exists, and directly
    otherwise.
    """

    name: str = "mitigation"

    def __init__(self, threshold: float):
        if threshold < 1.0:
            raise ConfigurationError(
                f"{type(self).__name__}: threshold must be >= 1, got {threshold}"
            )
        self.threshold = float(threshold)
        self.preventive_refreshes = 0
        self.rank_blocks = 0

    @abstractmethod
    def on_activate(self, bank: int, row: int, now: float) -> PreventiveAction:
        """React to one ACT; return the preventive work to schedule."""

    def on_refresh_window(self, now: float) -> None:
        """tREFW boundary: counters that reset with refresh do so here."""

    def _count_action(self, action: PreventiveAction) -> PreventiveAction:
        self.preventive_refreshes += len(action.victim_refreshes)
        if action.rank_block_ns > 0:
            self.rank_blocks += 1
        return action


def neighbors_of(bank: int, row: int) -> List[Tuple[int, int]]:
    """The two blast-radius-1 victims of an aggressor row."""
    victims = []
    if row > 0:
        victims.append((bank, row - 1))
    victims.append((bank, row + 1))
    return victims
