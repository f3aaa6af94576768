"""Table 1: the tested DDR4 modules and HBM2 chips, regenerated from the
catalog, with the derived VRD model parameters per device.
"""

from repro.analysis.tables import format_table
from repro.bender.host import DramBender
from repro.chips import ALL_SPECS, DDR4_SPECS, HBM2_SPECS, build_module, vrd_params_for
from repro.chips.catalog import EXTENDED_SPECS


def test_table1_tested_devices(benchmark):
    params = benchmark.pedantic(
        lambda: {device.module_id: vrd_params_for(device) for device in ALL_SPECS},
        rounds=1,
        iterations=1,
    )

    rows = [
        (
            device.manufacturer,
            device.module_id,
            device.chips,
            f"{device.density} - {device.die_rev}",
            device.org,
            device.date_code,
        )
        for device in ALL_SPECS
    ]
    print()
    print(
        format_table(
            ["Mfr.", "Module", "# of Chips", "Density - Die Rev.",
             "Chip Org.", "Date (ww-yy)"],
            rows,
            title="Table 1 | tested DDR4 modules and HBM2 chips",
        )
    )
    print()
    print(
        format_table(
            ["module", "mean RDT", "depth scale", "rare dip depth",
             "RowPress alpha"],
            [
                (mid, p.mean_rdt, p.depth_scale, p.rare_trap_depth,
                 p.taggon_rdt_alpha)
                for mid, p in params.items()
            ],
            title="Derived per-device VRD model parameters",
        )
    )

    assert len(DDR4_SPECS) == 21
    assert len(HBM2_SPECS) == 4
    assert sum(device.chips for device in DDR4_SPECS) == 160


def test_table1_devices_adjacency_is_discovered():
    """Sec. 3.1: aggressor adjacency is reverse-engineered, not assumed.
    For sampled rows of every catalog device (a bank edge, a mapping
    block boundary and a mid-bank row), single-sided probing through the
    Bender host recovers exactly the physical neighbours its row mapping
    defines."""
    mismatches = {}
    for device in EXTENDED_SPECS:
        module = build_module(device.module_id)
        bender = DramBender(module)
        mapping = module.bank(0).mapping
        n_rows = module.geometry.n_rows
        rows = (0, 63, n_rows // 2 + 9)
        adjacency = bender.discover_adjacency(0, rows)
        for row in rows:
            expected = sorted(mapping.aggressors_for_victim(row))
            if adjacency[row] != expected:
                mismatches[(device.module_id, row)] = (adjacency[row], expected)
    assert mismatches == {}
