"""Per-layer self time, measured from outside the package.

The benchmark wraps calls into the package's public functions; nothing in
``src/`` knows it is being traced. A target's *self time* is the time
spent in its wrapped calls minus the time spent in wrapped calls nested
inside them, so the self times of all targets plus the unattributed
remainder add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from typing import Callable, Dict, List, Optional, Tuple

#: ``(metric prefix, module, attribute path)``. Several targets may share
#: one metric prefix; their calls and self times add up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("analysis.figures.foundational_victim", "repro.analysis.figures", "foundational_victim"),
    ("analysis.figures.module_campaign", "repro.analysis.figures", "module_campaign"),
    ("core.rdt.FastRdtMeter.guess_rdt", "repro.core.rdt", "FastRdtMeter.guess_rdt"),
    ("core.rdt.FastRdtMeter.measure_series", "repro.core.rdt", "FastRdtMeter.measure_series"),
    ("core.rdt.find_victim", "repro.core.rdt", "find_victim"),
    ("core.campaign.select_vulnerable_rows", "repro.core.campaign", "select_vulnerable_rows"),
    ("core.campaign.Campaign.run", "repro.core.campaign", "Campaign.run"),
    ("core.montecarlo.min_rdt_analysis", "repro.core.montecarlo", "min_rdt_analysis"),
    ("core.guardband.margin_bitflip_experiment", "repro.core.guardband", "margin_bitflip_experiment"),
    ("core.guardband.guardband_probability_analysis", "repro.core.guardband", "guardband_probability_analysis"),
    ("core.stats", "repro.core.stats", "box_stats"),
    ("core.stats", "repro.core.stats", "histogram_unique_bins"),
    ("core.stats", "repro.core.stats", "chi_square_normal_fit"),
    ("core.stats", "repro.core.stats", "run_lengths"),
    ("core.stats", "repro.core.stats", "autocorrelation"),
    ("core.stats", "repro.core.stats", "ljung_box_test"),
    ("core.engine.CampaignCache.load", "repro.core.engine", "CampaignCache.load"),
    ("core.engine.CampaignCache.store", "repro.core.engine", "CampaignCache.store"),
    ("dram.faults.ModuleFaultModel.process", "repro.dram.faults", "ModuleFaultModel.process"),
    ("dram.faults.ModuleFaultModel.probe_guess_means", "repro.dram.faults", "ModuleFaultModel.probe_guess_means"),
    ("dram.faults.ModuleFaultModel.latent_series_bank", "repro.dram.faults", "ModuleFaultModel.latent_series_bank"),
    ("dram.faults.RowVrdProcess.latent_series", "repro.dram.faults", "RowVrdProcess.latent_series"),
    ("dram.faults.RowVrdProcess.begin_measurement", "repro.dram.faults", "RowVrdProcess.begin_measurement"),
    ("dram.faults.RowVrdProcess.trial_flip_series", "repro.dram.faults", "RowVrdProcess.trial_flip_series"),
    ("security.attack.profile_and_attack", "repro.security.attack", "profile_and_attack"),
    ("security.attack.attack_escape", "repro.security.attack", "attack_escape"),
    ("memsim.sweep.run_sweep", "repro.memsim.sweep", "run_sweep"),
    ("ecc.table3", "repro.ecc.analysis", "table3"),
    ("ecc.monte_carlo_outcomes", "repro.ecc.analysis", "monte_carlo_outcomes"),
    ("testtime.single_bank_schedule", "repro.testtime.schedule", "single_bank_schedule"),
    ("testtime.multi_bank_schedule", "repro.testtime.schedule", "multi_bank_schedule"),
)


def metric_prefixes() -> List[str]:
    """Distinct metric prefixes, in table order."""
    return list(dict.fromkeys(prefix for prefix, _, _ in TARGETS))


class Tracer:
    """Accumulates calls, self time and inclusive time per metric prefix.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._stack: List[List[int]] = []
        #: prefix -> [calls, self_ns, inclusive_ns]
        self.stats: Dict[str, List[int]] = {}
        #: Inclusive time of outermost wrapped calls.
        self.top_ns = 0

    def wrap(self, prefix: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(prefix, [0, 0, 0])
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]  # time spent in wrapped children
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_ns += elapsed

        return traced


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` holding the target, or raise."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if name not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is not defined")
    return owner, name


class Installation:
    """The patches :func:`install` made, so they can be undone."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        #: Metric prefixes whose target could not be found.
        self.missing: List[str] = []

    def undo(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target found; warn about and skip the rest.

    A module-level function is replaced where it is defined and in every
    loaded module that bound the same object by ``from ... import`` (the
    figure helpers import ``find_victim`` directly, for instance). Call
    after the workload's imports, so those bindings exist.
    """
    done = Installation()
    for prefix, module_name, path in targets:
        try:
            owner, name = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            warnings.warn(f"trace target {prefix} missing: {exc}", stacklevel=2)
            done.missing.append(prefix)
            continue
        raw = vars(owner)[name]
        replacement = tracer.wrap(prefix, raw)
        done.patches.append((owner, name, raw))
        setattr(owner, name, replacement)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if module is owner or not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is raw:
                    done.patches.append((module, attr, raw))
                    setattr(module, attr, replacement)
    return done


def layer_metrics(
    tracer: Tracer, wall_ns: int, missing: List[str]
) -> Dict[str, Optional[float]]:
    """``<prefix>.calls`` and ``<prefix>.self_share`` for every prefix
    (``None`` for a missing target), plus the unattributed share."""
    metrics: Dict[str, Optional[float]] = {}
    for prefix in metric_prefixes():
        if prefix in missing and prefix not in tracer.stats:
            metrics[f"{prefix}.calls"] = None
            metrics[f"{prefix}.self_share"] = None
            continue
        calls, self_ns, _ = tracer.stats.get(prefix, (0, 0, 0))
        metrics[f"{prefix}.calls"] = calls
        metrics[f"{prefix}.self_share"] = self_ns / wall_ns
    metrics["bench.unattributed_share"] = (wall_ns - tracer.top_ns) / wall_ns
    return metrics
