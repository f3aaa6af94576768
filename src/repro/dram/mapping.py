"""Logical-to-physical DRAM row address mapping.

DRAM manufacturers remap memory-controller-visible ("logical") row addresses
to internal ("physical") rows for repair and layout reasons. Double-sided
RowHammer requires *physically* adjacent aggressors, so the paper (Sec. 3.1)
reverse-engineers the mapping with the methodology of prior work: hammer a
single logical row hard and observe which logical rows collect bitflips.

We implement three mapping families seen in real chips plus that
reverse-engineering procedure, so the characterization pipeline discovers
adjacency instead of assuming it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence

from repro.errors import AddressError, ConfigurationError


class RowMapping(ABC):
    """Bijection between logical and physical row addresses of one bank.

    Each family states :attr:`adjacency_spread`, the largest logical
    distance between two physically adjacent rows, so adjacency discovery
    knows how far from a hammered row its neighbours can sit.
    """

    adjacency_spread: int

    def __init__(self, n_rows: int):
        if n_rows <= 0 or n_rows & (n_rows - 1):
            raise ConfigurationError(
                f"row mappings require a power-of-two row count, got {n_rows}"
            )
        self.n_rows = n_rows

    @abstractmethod
    def to_physical(self, logical: int) -> int:
        """Map a logical row address to its physical row."""

    def _check(self, address: int) -> None:
        if not 0 <= address < self.n_rows:
            raise AddressError(
                f"row {address} out of range [0, {self.n_rows})"
            )

    def physical_neighbors(self, logical: int, distance: int = 1) -> List[int]:
        """Logical addresses of the rows at +/-``distance`` physically.

        Rows at the edge of the bank have fewer neighbors.
        """
        self._check(logical)
        if distance <= 0:
            raise ConfigurationError("distance must be positive")
        physical = self.to_physical(logical)
        neighbors = []
        for candidate in (physical - distance, physical + distance):
            if 0 <= candidate < self.n_rows:
                neighbors.append(self.to_logical(candidate))
        return neighbors

    def aggressors_for_victim(self, victim_logical: int) -> List[int]:
        """The logical addresses to hammer for a double-sided pattern."""
        return self.physical_neighbors(victim_logical, distance=1)


class SequentialMapping(RowMapping):
    """Identity mapping: logical row i is physical row i."""

    adjacency_spread = 1

    def to_physical(self, logical: int) -> int:
        self._check(logical)
        return logical

    def to_logical(self, physical: int) -> int:
        self._check(physical)
        return physical


class MirroredFoldMapping(RowMapping):
    """Samsung-style address-bit fold observed by prior reverse engineering.

    Within each block of four rows the middle pair is swapped when bit 3 of
    the address is set, approximating the "row address mirroring" schemes
    documented for real chips: logical +1 neighbors are not always physical
    +1 neighbors.
    """

    #: Physical rows 7 and 8 of a 16-row block hold logical rows 7 and 14.
    adjacency_spread = 7

    def to_physical(self, logical: int) -> int:
        self._check(logical)
        if logical & 0b1000:
            return logical ^ 0b0110
        return logical

    def to_logical(self, physical: int) -> int:
        self._check(physical)
        # The transform is an involution within each 16-row block.
        if physical & 0b1000:
            return physical ^ 0b0110
        return physical


class ScrambledBlockMapping(RowMapping):
    """XOR-scramble of low address bits, keyed per chip.

    Models vendor scramblers that XOR a function of high bits into the low
    bits. The scramble is an involution (XOR with a mask derived from the
    upper bits), so ``to_logical == to_physical``.
    """

    def __init__(self, n_rows: int, key: int = 0b101):
        super().__init__(n_rows)
        if not 0 <= key < 8:
            raise ConfigurationError("scramble key must fit in 3 bits")
        self.key = key
        # The mask depends on address bits 3-5, so every physical
        # neighbour pair occurs within the first 65 rows (10 for the
        # default key).
        self.adjacency_spread = max(
            abs(self._scramble(physical) - self._scramble(physical + 1))
            for physical in range(min(n_rows - 1, 64))
        )

    def _scramble(self, address: int) -> int:
        mask = ((address >> 3) & 0b111) & self.key
        return address ^ mask

    def to_physical(self, logical: int) -> int:
        self._check(logical)
        return self._scramble(logical)

    def to_logical(self, physical: int) -> int:
        self._check(physical)
        return self._scramble(physical)


def reverse_engineer_adjacency(
    n_rows: int,
    probe_victims: Callable[[int], Sequence[int]],
    sample_rows: Sequence[int],
) -> Dict[int, List[int]]:
    """Recover physical adjacency by hammering and observing victims.

    This is the methodology of the prior work the paper reuses: hammer one
    logical row (single-sided, very high hammer count) and record which
    logical rows exhibit bitflips — those are the physical neighbors.

    Args:
        n_rows: Rows in the bank (for address validation only).
        probe_victims: Callback that hammers the given logical row and
            returns the logical addresses of rows that flipped. The DRAM
            Bender host provides this (see
            :meth:`repro.bender.host.DramBender.probe_neighbors`).
        sample_rows: Logical rows to probe.

    Returns:
        Mapping from each probed logical row to the sorted list of its
        discovered logical neighbors.
    """
    adjacency: Dict[int, List[int]] = {}
    for row in sample_rows:
        if not 0 <= row < n_rows:
            raise AddressError(f"row {row} out of range [0, {n_rows})")
        victims = sorted(set(probe_victims(row)))
        adjacency[row] = victims
    return adjacency
