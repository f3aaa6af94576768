"""Observability layer: trace spans, typed metrics, per-run reports.

Usage from instrumented code::

    from repro import obs

    rec = obs.active()             # NOOP unless tracing is enabled
    with rec.span("sweep.run"):
        ...
        rec.counter_add("cache.hit")  # gate per-iteration work on rec.enabled

Enable via ``VRD_TRACE=1``, :func:`enable`, or scoped :func:`tracing`.
See :mod:`repro.obs.recorder` for the overhead/determinism/merge
contracts and ``docs/observability.md`` for the full model.
"""

from repro.obs.recorder import (  # noqa: F401
    NOOP,
    SNAPSHOT_FORMAT,
    TRACE_ENV_VAR,
    NoopRecorder,
    Recorder,
    SpanStats,
    active,
    disable,
    enable,
    enabled,
    trace_env_enabled,
    tracing,
)
from repro.obs.report import (  # noqa: F401
    REPORT_FORMAT,
    REPORT_KIND,
    RunReport,
)

__all__ = [
    "NOOP",
    "SNAPSHOT_FORMAT",
    "TRACE_ENV_VAR",
    "NoopRecorder",
    "Recorder",
    "SpanStats",
    "RunReport",
    "REPORT_FORMAT",
    "REPORT_KIND",
    "active",
    "disable",
    "enable",
    "enabled",
    "trace_env_enabled",
    "tracing",
]
