"""Import-cost guard: the reproduction packages never load ``scipy.stats``
or ``scipy.fft``, which together add about 0.85 s and 46 MB to every run
on top of ``scipy.special``."""

import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGES = (
    "repro.analysis",
    "repro.ecc",
    "repro.memsim",
    "repro.security",
    "repro.testtime",
)

PROBE = f"""
import sys
import {", ".join(PACKAGES)}
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["scipy", "stats"], ["scipy", "fft"])
)
print(",".join(heavy))
"""


def test_packages_import_without_scipy_stats_or_fft():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == ""
