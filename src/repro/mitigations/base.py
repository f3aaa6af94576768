"""The mitigation protocol shared by Graphene, PRAC, PARA, MINT and
BlockHammer.

Each mechanism is one :class:`Mitigation` subclass: the parameters it
derives from its threshold plus its counter tables as preallocated arrays
and O(1) bookkeeping. The memory-system loop calls :meth:`Mitigation.start`
when a run begins, then drives an epoch protocol:

* ``budget()`` — how many further activations may be buffered before the
  next mandatory flush. Within one budget, any activation whose key is
  *not* in :attr:`Mitigation.danger` (``bank * n_rows + row`` flats, or
  bank indices when :attr:`danger_by_bank` is set; mutated in place,
  never rebound, so callers may cache it) is guaranteed action-free and
  its counter update commutes, so the loop just buffers it;
* ``on_activate_many(banks, rows)`` — absorb one buffered epoch with
  batched counter updates (a scalar loop below :data:`_PY_EPOCH`
  activations, ``np.unique``-grouped vectorized updates above);
* ``step(bank, row)`` — one exact update for a dangerous or
  budget-exhausted activation, returning the :data:`Action` or ``None``;
* ``on_refresh_window()`` — the tREFW boundary.

**Why this is exact.** Let ``K`` = :data:`_EPOCH_FLOOR` and take a
mechanism whose action fires when a counter reaches ``limit``. ``danger``
holds every key with count >= ``limit - 1 - K`` (an invariant every
update path maintains), so a screened key starts an epoch at most
``limit - 2 - K`` and can gain at most the epoch budget. A budget of
``K`` therefore leaves it at most at ``limit - 2``; a budget of
``h = limit - 1 - max_count > K`` bounds *every* key by ``limit - 1``.
Either way no screened activation can cross mid-epoch, and since no
action fires, the buffered counter increments commute with each other
and with the surrounding exact steps. Stochastic mechanisms (PARA, MINT)
consume the *same* RNG draw sequence through chunked
``Generator.random`` buffers, which numpy guarantees are bit-identical
to per-call draws.

The specification is one ``on_activate`` per activation:
``tests/differential/mitigation_oracle.py`` holds a per-activation
reference of every mechanism, built from the mechanism's derived
parameters and seed. ``tests/mitigations/test_fast.py`` drives both under
this protocol and asserts identical actions at identical positions, and
the ``memsim`` pair's ``reference_memsim_run`` drives the references
through a whole simulation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Duration of an RFM / back-off rank stall (DDR5 tRFM-class command, ns).
RFM_BLOCK_NS = 350.0

#: Duration of one victim-row refresh (an ACT/PRE pair, ns).
VICTIM_REFRESH_NS = 46.0

#: One mitigation action: (victim refreshes as (bank, row) pairs, each
#: costing one ACT/PRE on that bank; rank stall ns; per-bank stalls as
#: (bank, ns) pairs).
Action = Tuple[List[Tuple[int, int]], float, Sequence[Tuple[int, float]]]

#: RNG draws pre-generated per batch by the stochastic mechanisms.
_DRAW_CHUNK = 4096

#: Cap on the screened epoch floor. Each mechanism scales its own floor
#: to its action limit (see :meth:`Mitigation._screen`) so screening stays
#: active — and the danger zone stays narrow — even at very low thresholds.
_EPOCH_FLOOR = 48

#: Epoch size below which counter updates run as a Python scalar loop;
#: ``np.unique`` grouping only pays off above this.
_PY_EPOCH = 64


def apply_guardband(rdt: float, margin: float) -> float:
    """Threshold after applying a safety margin (Sec. 6.3).

    A 25% guardband on RDT=128 configures the mitigation for 96.
    """
    if rdt <= 0:
        raise ConfigurationError("RDT must be positive")
    if not 0.0 <= margin < 1.0:
        raise ConfigurationError(f"margin {margin} must be in [0, 1)")
    return rdt * (1.0 - margin)


def neighbors_of(bank: int, row: int) -> List[Tuple[int, int]]:
    """The two blast-radius-1 victims of an aggressor row."""
    victims = []
    if row > 0:
        victims.append((bank, row - 1))
    victims.append((bank, row + 1))
    return victims


class Mitigation:
    """A preventive read-disturbance mitigation configured for a
    threshold; see the module docstring for the protocol its subclasses
    implement."""

    name: str = "mitigation"

    #: When True, :attr:`danger` holds bank indices instead of row flats.
    danger_by_bank = False

    def __init__(self, threshold: float):
        if threshold < 1.0:
            raise ConfigurationError(
                f"{type(self).__name__}: threshold must be >= 1, got {threshold}"
            )
        self.threshold = float(threshold)
        self.danger: set = set()
        self.preventive_refreshes = 0
        self.rank_blocks = 0

    def start(self, n_banks: int, n_rows: int) -> None:
        """Begin a run: zeroed counters, and the fresh tables of a
        tracking window (``on_refresh_window``) for the geometry."""
        self.n_banks = n_banks
        self.n_rows = n_rows
        self.preventive_refreshes = 0
        self.rank_blocks = 0
        self.on_refresh_window()

    def _screen(self, limit: int) -> None:
        """Epoch floor and danger-zone start for an action at ``limit``.

        An eighth of the limit keeps the danger zone (the last ``floor``
        counts before an action, whose activations must step exactly) to
        ~12% of a hot row's cycle while still amortizing the flush
        overhead over several buffered activations.
        """
        self._floor = max(1, min(_EPOCH_FLOOR, limit // 8))
        self._danger_at = limit - 1 - self._floor
        self._floor_ok = self._danger_at > 0

    def on_refresh_window(self) -> None:
        """tREFW boundary: whatever resets with refresh does so here (a
        mechanism without per-window tables, like PARA, keeps this)."""
        self.danger.clear()

    def _refresh_action(
        self, bank: int, row: int, rank_ns: float = 0.0
    ) -> Action:
        victims = neighbors_of(bank, row)
        self.preventive_refreshes += len(victims)
        if rank_ns > 0:
            self.rank_blocks += 1
        return (victims, rank_ns, ())
