"""Read-disturbance mitigation techniques evaluated in Fig. 14.

Four state-of-the-art preventive-refresh mechanisms behind one interface:

* :class:`Graphene` — memory-controller Misra-Gries aggressor tracking;
* :class:`Prac` — in-DRAM per-row activation counters with back-off
  (the DDR5 PRAC mechanism);
* :class:`Para` — stateless probabilistic adjacent-row refresh;
* :class:`Mint` — minimalist in-DRAM tracker paced by RFM commands.

Each is configured with a read disturbance threshold (optionally reduced by
a guardband); lower thresholds force more frequent preventive actions,
which is exactly the performance cost the paper quantifies.
"""

from repro.mitigations.base import Mitigation, apply_guardband
from repro.mitigations.graphene import Graphene
from repro.mitigations.para import Para
from repro.mitigations.prac import Prac
from repro.mitigations.mint import Mint
from repro.mitigations.adaptive import AdaptiveMitigation
from repro.mitigations.blockhammer import BlockHammer

__all__ = [
    "Mitigation",
    "apply_guardband",
    "Graphene",
    "Para",
    "Prac",
    "Mint",
    "AdaptiveMitigation",
    "BlockHammer",
]


def build_mitigation(name: str, threshold: float, seed: int = 0) -> Mitigation:
    """Instantiate a mitigation by its Fig. 14 name."""
    key = name.strip().lower()
    if key == "graphene":
        return Graphene(threshold)
    if key == "prac":
        return Prac(threshold)
    if key == "para":
        return Para(threshold, seed=seed)
    if key == "mint":
        return Mint(threshold, seed=seed)
    if key == "blockhammer":
        return BlockHammer(threshold)
    from repro.errors import ConfigurationError

    raise ConfigurationError(f"unknown mitigation {name!r}")
