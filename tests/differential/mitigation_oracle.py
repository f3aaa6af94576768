"""Per-activation reference mitigations: the oracle of
:mod:`repro.mitigations`.

Each reference keeps its state in plain dicts and reacts to one
activation at a time through ``on_activate(bank, row)``, returning the
same ``(victim refreshes, rank stall ns, bank delays)`` action tuple as
the mechanism's ``step`` (``None`` when nothing happened).
:func:`oracle_of` builds the reference of a ``repro`` mechanism from its
derived parameters and seed, so a test that sets a derived attribute
(Graphene's ``table_size``, BlockHammer's ``filter_size``) configures
both. ``reference_memsim_run`` and ``tests/mitigations/test_fast.py``
drive these.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.mitigations import (
    AdaptiveMitigation,
    BlockHammer,
    Graphene,
    Mint,
    Para,
    Prac,
)
from repro.mitigations.adaptive import RECONFIGURE_STALL_NS
from repro.mitigations.base import RFM_BLOCK_NS, neighbors_of
from repro.mitigations.blockhammer import THROTTLE_DELAY_NS
from repro.rng import derive


class _Reference:
    def __init__(self, mechanism, *params):
        self.name = mechanism.name
        for param in params:
            setattr(self, param, getattr(mechanism, param))
        self.preventive_refreshes = 0
        self.rank_blocks = 0

    def _count(self, victims, rank_ns: float = 0.0):
        self.preventive_refreshes += len(victims)
        if rank_ns > 0:
            self.rank_blocks += 1
        return (victims, rank_ns, ())

    def on_refresh_window(self) -> None:
        """tREFW boundary: counters that reset with refresh do so here."""


class ReferenceGraphene(_Reference):
    """Misra-Gries tracker with per-bank dict tables."""

    def __init__(self, mechanism: Graphene):
        super().__init__(mechanism, "refresh_at", "table_size")
        self._tables = {}
        self._spill = {}  # Misra-Gries spillover counter per bank

    def on_activate(self, bank: int, row: int):
        table = self._tables.setdefault(bank, {})
        spill = self._spill.get(bank, 0)
        if row in table:
            table[row] += 1
        elif len(table) < self.table_size:
            table[row] = spill + 1
        else:
            # Decrement-all via spillover increment (lazy Misra-Gries).
            self._spill[bank] = spill + 1
            evicted = [r for r, c in table.items() if c <= self._spill[bank]]
            for r in evicted:
                del table[r]
            return None
        if table[row] >= self.refresh_at:
            table[row] = self._spill.get(bank, 0)
            return self._count(neighbors_of(bank, row))
        return None

    def on_refresh_window(self) -> None:
        self._tables.clear()
        self._spill.clear()


class ReferencePrac(_Reference):
    """Exact per-(bank, row) counters with back-off."""

    def __init__(self, mechanism: Prac):
        super().__init__(mechanism, "backoff_at")
        self._counters = {}

    def on_activate(self, bank: int, row: int):
        key = (bank, row)
        count = self._counters.get(key, 0) + 1
        if count >= self.backoff_at:
            self._counters[key] = 0
            return self._count(neighbors_of(bank, row), RFM_BLOCK_NS)
        self._counters[key] = count
        return None

    def on_refresh_window(self) -> None:
        self._counters.clear()


class ReferencePara(_Reference):
    """One Bernoulli draw per activation."""

    def __init__(self, mechanism: Para):
        super().__init__(mechanism, "p")
        self._rng = derive(mechanism.seed, "para", int(mechanism.threshold))

    def on_activate(self, bank: int, row: int):
        if self._rng.random() < self.p:
            return self._count(neighbors_of(bank, row))
        return None


class ReferenceMint(_Reference):
    """Single-entry reservoir sampler, one draw per activation."""

    def __init__(self, mechanism: Mint):
        super().__init__(mechanism, "rfm_every")
        self._rng = derive(mechanism.seed, "mint", int(mechanism.threshold))
        self._acts_since_rfm = {}
        self._sampled = {}

    def on_activate(self, bank: int, row: int):
        count = self._acts_since_rfm.get(bank, 0) + 1
        # Reservoir sampling: the k-th activation replaces the sample with
        # probability 1/k.
        if self._rng.random() < 1.0 / count:
            self._sampled[bank] = (bank, row)
        if count >= self.rfm_every:
            self._acts_since_rfm[bank] = 0
            sampled = self._sampled.pop(bank, None)
            victims = neighbors_of(*sampled) if sampled else []
            return self._count(victims, RFM_BLOCK_NS)
        self._acts_since_rfm[bank] = count
        return None

    def on_refresh_window(self) -> None:
        self._acts_since_rfm.clear()
        self._sampled.clear()


class ReferenceBlockHammer(_Reference):
    """Per-bank count-min filters, updated one activation at a time."""

    def __init__(self, mechanism: BlockHammer):
        super().__init__(mechanism, "filter_size", "n_hashes", "quota")
        self._filters = {}
        self.throttled_activations = 0

    def on_activate(self, bank: int, row: int):
        counters = self._filters.setdefault(
            bank, np.zeros(self.filter_size, dtype=np.int64)
        )
        indices = []
        value = row
        for salt in range(self.n_hashes):
            value = (value * 2654435761 + salt * 40503 + 12345) & 0xFFFFFFFF
            indices.append(value % self.filter_size)
        for index in indices:
            counters[index] += 1
        # Count-min estimate of the row's activations this window.
        if min(counters[index] for index in indices) > self.quota:
            self.throttled_activations += 1
            return ([], 0.0, ((bank, THROTTLE_DELAY_NS),))
        return None

    def on_refresh_window(self) -> None:
        self._filters.clear()


class ReferenceAdaptive(_Reference):
    """Policy check every ``check_every`` activations; a rebuild charges a
    rank stall, and the retired references' counts add up."""

    def __init__(self, mechanism: AdaptiveMitigation):
        super().__init__(mechanism, "threshold", "check_every", "hysteresis")
        self.factory = lambda threshold: oracle_of(mechanism.factory(threshold))
        # Its own copy, so a stateful policy advances once per run.
        self.policy = copy.deepcopy(mechanism.policy)
        self._inner = oracle_of(mechanism._inner)
        self._acts_since_check = 0
        self._retired = [0, 0]  # refreshes, rank blocks
        self.reconfigurations = 0

    def on_activate(self, bank: int, row: int):
        stall = 0.0
        self._acts_since_check += 1
        if self._acts_since_check >= self.check_every:
            self._acts_since_check = 0
            target = self.policy.threshold()
            current = self.threshold
            if abs(target - current) / current > self.hysteresis:
                self.threshold = float(target)
                self._retired[0] += self._inner.preventive_refreshes
                self._retired[1] += self._inner.rank_blocks
                self._inner = self.factory(self.threshold)
                self.reconfigurations += 1
                stall = RECONFIGURE_STALL_NS
        action = self._inner.on_activate(bank, row)
        inner = self._inner
        self.preventive_refreshes = self._retired[0] + inner.preventive_refreshes
        self.rank_blocks = (
            self._retired[1] + inner.rank_blocks + self.reconfigurations
        )
        if stall > 0.0:
            victims, rank_ns, bank_delays = action or ([], 0.0, ())
            action = (victims, rank_ns + stall, bank_delays)
        return action

    def on_refresh_window(self) -> None:
        self._inner.on_refresh_window()


_REFERENCES = {
    Graphene: ReferenceGraphene,
    Prac: ReferencePrac,
    Para: ReferencePara,
    Mint: ReferenceMint,
    BlockHammer: ReferenceBlockHammer,
    AdaptiveMitigation: ReferenceAdaptive,
}


def oracle_of(mechanism):
    """The per-activation reference of a ``repro`` mechanism. A mechanism
    defined in a test, with an ``on_activate`` of its own, is its own
    reference."""
    reference = _REFERENCES.get(type(mechanism))
    return mechanism if reference is None else reference(mechanism)
