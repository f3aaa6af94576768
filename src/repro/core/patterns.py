"""Data patterns used in the experiments (paper Table 2).

Each pattern fixes the byte written to the victim row, to the two aggressor
rows (always the complement), and to the further neighborhood rows
``V +/- [2:8]`` (same byte as the victim).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DataPattern:
    """One memory-test data pattern.

    Attributes:
        name: Canonical lowercase key used by the fault model's condition
            factors (``rowstripe0`` etc.).
        victim_byte: Byte stored in the victim row and in ``V +/- [2:8]``.
    """

    name: str
    victim_byte: int

    def __post_init__(self) -> None:
        if not 0 <= self.victim_byte <= 0xFF:
            raise ConfigurationError(
                f"victim byte {self.victim_byte:#x} out of range"
            )

    @property
    def aggressor_byte(self) -> int:
        """Aggressor rows always hold the complement of the victim byte."""
        return self.victim_byte ^ 0xFF

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


ROWSTRIPE0 = DataPattern("rowstripe0", 0x00)
ROWSTRIPE1 = DataPattern("rowstripe1", 0xFF)
CHECKERED0 = DataPattern("checkered0", 0x55)
CHECKERED1 = DataPattern("checkered1", 0xAA)

#: The four patterns of Table 2, in the paper's order.
ALL_PATTERNS = (ROWSTRIPE0, ROWSTRIPE1, CHECKERED0, CHECKERED1)

_BY_NAME = {pattern.name: pattern for pattern in ALL_PATTERNS}


def pattern_by_name(name: str) -> DataPattern:
    """Look a canonical pattern up by name (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown data pattern {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
