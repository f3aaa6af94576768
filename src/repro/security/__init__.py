"""Security evaluation: do mitigations hold against VRD?

The paper's central implication (Sec. 6.1): a mitigation configured with a
threshold above the RDT a row *ever* exhibits will eventually let a bitflip
through. This package turns that statement into an executable experiment —
an attacker hammers a victim across refresh windows while the row's
instantaneous RDT fluctuates per the VRD model, and a mitigation bounds the
exposure the victim accrues per window.
"""

from repro.security.attack import (
    AttackOutcome,
    attack_escape,
    exposure_windows,
    profile_and_attack,
)

__all__ = [
    "AttackOutcome",
    "exposure_windows",
    "attack_escape",
    "profile_and_attack",
]
