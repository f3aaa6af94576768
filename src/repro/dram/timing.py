"""JEDEC timing parameter sets.

Values follow the paper: Table 6 lists the DDR5 numbers used by the Appendix
A test-time analysis; DDR4 values come from JESD79-4C for the speed grades of
the tested modules (Table 7); HBM2 values from JESD235D. All times are
nanoseconds (see :mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import us, ms

#: Timing-rule scopes, by how two commands' addresses relate:
#:
#: * ``same_bank`` — both commands address the same bank.
#: * ``same_bank_group`` — both banks are in the same bank group (the
#:   same bank included; tighter same-bank rules dominate where both
#:   apply).
#: * ``cross_bank_group`` — different bank groups, same pseudo channel.
#: * ``same_pseudo_channel`` — any two banks of one pseudo channel
#:   (rank-level commands such as REF apply to every pseudo channel).
SCOPE_SAME_BANK = "same_bank"
SCOPE_SAME_GROUP = "same_bank_group"
SCOPE_CROSS_GROUP = "cross_bank_group"
SCOPE_CHANNEL = "same_pseudo_channel"

#: Rule mechanics: ``min_gap`` requires at least ``delay`` ns between the
#: matched commands; ``window`` caps how many ``curr`` commands fit in any
#: ``delay``-long window (the tFAW four-activate rule); ``max_gap`` bounds
#: the spacing between consecutive matched commands from above (tREFI).
RULE_MIN_GAP = "min_gap"
RULE_WINDOW = "window"
RULE_MAX_GAP = "max_gap"


@dataclass(frozen=True)
class TimingRule:
    """One declarative protocol rule the TimingChecker enforces.

    ``prev``/``curr`` are :class:`~repro.dram.commands.CommandKind` names
    (kept as strings so the table stays a plain-data artifact that can be
    serialized into docs and golden corpora). For ``window`` rules,
    ``prev`` is unused and ``window`` is the command budget per
    ``delay``-long interval.
    """

    name: str
    prev: str
    curr: str
    delay: float
    scope: str = SCOPE_SAME_BANK
    kind: str = RULE_MIN_GAP
    window: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (RULE_MIN_GAP, RULE_WINDOW, RULE_MAX_GAP):
            raise ConfigurationError(f"unknown rule kind {self.kind!r}")
        if self.scope not in (
            SCOPE_SAME_BANK, SCOPE_SAME_GROUP, SCOPE_CROSS_GROUP,
            SCOPE_CHANNEL,
        ):
            raise ConfigurationError(f"unknown rule scope {self.scope!r}")
        if self.delay <= 0:
            raise ConfigurationError(
                f"rule {self.name}: delay must be positive, got {self.delay}"
            )
        if self.kind == RULE_WINDOW and self.window < 2:
            raise ConfigurationError(
                f"rule {self.name}: window rules need a budget >= 2"
            )


@dataclass(frozen=True)
class TimingParams:
    """One named set of DRAM timing parameters (nanoseconds).

    Attributes mirror the JEDEC names used throughout the paper:

    * ``tRCD``  — ACT to column command.
    * ``tRP``   — PRE to next ACT.
    * ``tRAS``  — ACT to PRE (minimum row-open time; the paper's minimum
      ``tAggOn``).
    * ``tRTP``  — READ to PRE.
    * ``tWR``   — end of write burst to PRE.
    * ``tCCD_L`` / ``tCCD_S`` — column-to-column, same/different bank group.
    * ``tCCD_L_WR`` — write-to-write, same bank group.
    * ``tRRD_S`` / ``tRRD_L`` — ACT-to-ACT across/within bank groups.
    * ``tFAW``  — the four-activate window (per rank or pseudo channel).
    * ``tREFI`` — average periodic refresh interval.
    * ``tREFW`` — refresh window (retention guarantee horizon).
    * ``tRFC``  — refresh command duration.
    * ``tRFCsb`` — same-bank refresh duration (DDR5 REFsb / HBM2
      single-bank refresh); 0 when the protocol has no such command.

    ``protocol`` tags the parameter set with its protocol family;
    ``rfm_supported``/``same_bank_refresh`` declare the per-protocol
    command-set extensions (DDR5 refresh management, DDR5/HBM2 same-bank
    refresh).
    """

    name: str
    data_rate_mts: int
    tRCD: float
    tRP: float
    tRAS: float
    tRTP: float
    tWR: float
    tCCD_L: float
    tCCD_S: float
    tCCD_L_WR: float
    tRRD_S: float
    tREFI: float
    tREFW: float
    tRFC: float
    protocol: str = "DDR4"
    tRRD_L: float = 4.9
    tFAW: float = 21.0
    tRFCsb: float = 0.0
    rfm_supported: bool = False
    same_bank_refresh: bool = False

    def __post_init__(self) -> None:
        for field_name in (
            "tRCD",
            "tRP",
            "tRAS",
            "tRTP",
            "tWR",
            "tCCD_L",
            "tCCD_S",
            "tCCD_L_WR",
            "tRRD_S",
            "tRRD_L",
            "tFAW",
            "tREFI",
            "tREFW",
            "tRFC",
        ):
            value = getattr(self, field_name)
            if value <= 0:
                raise ConfigurationError(
                    f"{self.name}: timing {field_name} must be positive, "
                    f"got {value}"
                )
        if self.tRAS < self.tRCD:
            raise ConfigurationError(
                f"{self.name}: tRAS ({self.tRAS}) must be >= tRCD ({self.tRCD})"
            )
        if self.tREFW < self.tREFI:
            raise ConfigurationError(
                f"{self.name}: tREFW must exceed tREFI"
            )
        if self.tRRD_L < self.tRRD_S:
            raise ConfigurationError(
                f"{self.name}: tRRD_L must be >= tRRD_S"
            )
        if self.tRFCsb < 0:
            raise ConfigurationError(
                f"{self.name}: tRFCsb must be >= 0"
            )
        if self.same_bank_refresh and self.tRFCsb == 0:
            raise ConfigurationError(
                f"{self.name}: same-bank refresh requires a tRFCsb"
            )
        from repro.dram.geometry import PROTOCOLS

        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"{self.name}: unknown protocol {self.protocol!r}; "
                f"expected one of {PROTOCOLS}"
            )

    @property
    def tRC(self) -> float:
        """Row cycle time: minimum ACT-to-ACT to the same bank."""
        return self.tRAS + self.tRP


def rule_table(params: TimingParams) -> Tuple[TimingRule, ...]:
    """The declarative timing-rule table one parameter set induces.

    This is the single source the :class:`~repro.dram.checker.
    TimingChecker` validates against; ``docs/protocols.md`` documents the
    schema. Rules cover precisely the constraints the simulated
    controller schedules for — conservative cross-command constraints the
    model does not schedule (e.g. write-to-read turnaround) are
    intentionally absent so legal streams never flag.
    """
    rules = [
        # Row-cycle core (same bank).
        TimingRule("tRC", "ACT", "ACT", params.tRC),
        TimingRule("tRAS", "ACT", "PRE", params.tRAS),
        TimingRule("tRP", "PRE", "ACT", params.tRP),
        TimingRule("tRCD", "ACT", "RD", params.tRCD),
        TimingRule("tRCD", "ACT", "WR", params.tRCD),
        TimingRule("tRTP", "RD", "PRE", params.tRTP),
        TimingRule("tWR", "WR", "PRE", params.tWR),
        # Column cadence within / across bank groups.
        TimingRule("tCCD_L", "RD", "RD", params.tCCD_L, SCOPE_SAME_GROUP),
        TimingRule(
            "tCCD_L_WR", "WR", "WR", params.tCCD_L_WR, SCOPE_SAME_GROUP
        ),
        TimingRule("tCCD_S", "RD", "RD", params.tCCD_S, SCOPE_CROSS_GROUP),
        # Activation cadence across banks.
        TimingRule("tRRD_L", "ACT", "ACT", params.tRRD_L, SCOPE_SAME_GROUP),
        TimingRule("tRRD_S", "ACT", "ACT", params.tRRD_S, SCOPE_CROSS_GROUP),
        TimingRule(
            "tFAW", "ACT", "ACT", params.tFAW, SCOPE_CHANNEL,
            kind=RULE_WINDOW, window=4,
        ),
        # Refresh.
        TimingRule("tRFC", "REF", "ACT", params.tRFC, SCOPE_CHANNEL),
        TimingRule(
            "tREFI", "REF", "REF", params.tREFI, SCOPE_CHANNEL,
            kind=RULE_MAX_GAP,
        ),
    ]
    if params.same_bank_refresh:
        rules.append(TimingRule("tRFCsb", "REFSB", "ACT", params.tRFCsb))
    if params.rfm_supported:
        # An RFM occupies the rank like a (shorter) refresh; model its
        # recovery with the same-bank-refresh duration when declared,
        # else the full tRFC.
        recovery = params.tRFCsb if params.tRFCsb else params.tRFC
        rules.append(TimingRule("tRFM", "RFM", "ACT", recovery, SCOPE_CHANNEL))
    return tuple(rules)


def _ddr4(
    name: str,
    data_rate: int,
    tRCD: float,
    tRP: float,
    tRRD_L: float = 4.9,
    tFAW: float = 21.0,
) -> TimingParams:
    """DDR4 speed-grade template: shared values from JESD79-4C."""
    return TimingParams(
        name=name,
        data_rate_mts=data_rate,
        tRCD=tRCD,
        tRP=tRP,
        tRAS=35.0,  # the paper's "minimum tAggOn (e.g., 35 ns)"
        tRTP=7.5,
        tWR=15.0,
        tCCD_L=6.25,
        tCCD_S=5.0,
        tCCD_L_WR=6.25,
        tRRD_S=3.3,
        tREFI=us(7.8),
        tREFW=ms(64.0),
        tRFC=350.0,
        protocol="DDR4",
        tRRD_L=tRRD_L,
        tFAW=tFAW,
    )


#: DDR4-2400 (modules H2): JESD79-4C CL17 grade.
DDR4_2400 = _ddr4("DDR4-2400", 2400, tRCD=14.16, tRP=14.16,
                  tRRD_L=4.9, tFAW=30.0)

#: DDR4-2666 (modules H0, S0, S1, S2, S4): CL19 grade.
DDR4_2666 = _ddr4("DDR4-2666", 2666, tRCD=14.25, tRP=14.25,
                  tRRD_L=4.9, tFAW=25.0)

#: DDR4-2933 (modules H3, H4): CL21 grade.
DDR4_2933 = _ddr4("DDR4-2933", 2933, tRCD=14.32, tRP=14.32,
                  tRRD_L=4.9, tFAW=23.0)

#: DDR4-3200 (modules H1, H5, H6, M0-M6, S3, S5, S6): CL22 grade.
DDR4_3200 = _ddr4("DDR4-3200", 3200, tRCD=13.75, tRP=13.75,
                  tRRD_L=4.9, tFAW=21.0)

#: DDR5-8800 with the exact Table 6 values, used by Appendix A.
DDR5_8800 = TimingParams(
    name="DDR5-8800",
    data_rate_mts=8800,
    tRCD=14.090,
    tRP=14.090,
    tRAS=32.000,
    tRTP=7.500,
    tWR=30.000,
    tCCD_L=5.000,
    tCCD_S=1.816,
    tCCD_L_WR=20.000,
    tRRD_S=1.816,
    tREFI=us(3.9),
    tREFW=ms(32.0),
    tRFC=295.0,
    protocol="DDR5",
    tRRD_L=5.0,
    tFAW=13.333,
    tRFCsb=130.0,
    rfm_supported=True,
    same_bank_refresh=True,
)

#: HBM2 (JESD235D) pseudo-channel timings for the four tested HBM2 chips.
HBM2_2000 = TimingParams(
    name="HBM2-2000",
    data_rate_mts=2000,
    tRCD=14.0,
    tRP=14.0,
    tRAS=33.0,
    tRTP=7.5,
    tWR=16.0,
    tCCD_L=4.0,
    tCCD_S=2.0,
    tCCD_L_WR=4.0,
    tRRD_S=4.0,
    tREFI=us(3.9),
    tREFW=ms(32.0),
    tRFC=260.0,
    protocol="HBM2",
    tRRD_L=6.0,
    tFAW=16.0,
    tRFCsb=160.0,
    same_bank_refresh=True,
)

#: Lookup by name, used by the chip catalog.
PRESETS = {
    preset.name: preset
    for preset in (DDR4_2400, DDR4_2666, DDR4_2933, DDR4_3200, DDR5_8800, HBM2_2000)
}
