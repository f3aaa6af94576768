"""Per-run reports: a recorder snapshot plus metadata, as JSON or a table.

A :class:`RunReport` is the durable artifact of one traced run — what
``python -m repro report`` prints and what ``--trace-out`` writes. The
JSON schema is covered by a golden-file test
(``tests/obs/golden/report_schema.json``); extend it additively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro import __version__
from repro.obs.recorder import SNAPSHOT_FORMAT, Recorder

#: Report file identity, checked on load.
REPORT_KIND = "vrd-run-report"
REPORT_FORMAT = 2


def _format_ns(ns: float) -> str:
    """Human-scale duration for table rendering."""
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def _render_table(title: str, headers: List[str], rows: List[tuple]) -> str:
    """Minimal fixed-width table (obs stays dependency-free)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(value.ljust(w) for value, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class RunReport:
    """One run's observability snapshot plus free-form metadata."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_recorder(cls, recorder: Recorder, **meta: object) -> "RunReport":
        snapshot = recorder.snapshot()
        return cls(
            meta={"version": __version__, **meta},
            spans=snapshot["spans"],
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
        )

    # -- serialization -------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "kind": REPORT_KIND,
            "format": REPORT_FORMAT,
            "snapshot_format": SNAPSHOT_FORMAT,
            "meta": dict(self.meta),
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunReport":
        if payload.get("kind") != REPORT_KIND:
            raise ValueError(f"not a run report: kind={payload.get('kind')!r}")
        if payload.get("format") != REPORT_FORMAT:
            raise ValueError(
                f"unsupported run-report format {payload.get('format')!r}"
            )
        return cls(
            meta=dict(payload["meta"]),
            spans=dict(payload["spans"]),
            counters=dict(payload["counters"]),
            gauges=dict(payload["gauges"]),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        return cls.from_payload(json.loads(Path(path).read_text()))

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Human-readable report (spans, counters, gauges)."""
        sections = []
        meta_bits = ", ".join(
            f"{key}={value}" for key, value in sorted(self.meta.items())
        )
        sections.append(f"run report | {meta_bits}" if meta_bits else "run report")

        if self.spans:
            rows = [
                (
                    path,
                    stats["count"],
                    _format_ns(stats["wall_ns"]),
                    _format_ns(stats["cpu_ns"]),
                    _format_ns(stats["wall_ns"] / stats["count"]),
                )
                for path, stats in sorted(
                    self.spans.items(),
                    key=lambda item: -item[1]["wall_ns"],
                )
            ]
            sections.append(_render_table(
                "spans (by total wall time)",
                ["span", "count", "wall", "cpu", "wall/call"],
                rows,
            ))

        if self.counters:
            rows = [
                (name, f"{value:g}")
                for name, value in sorted(self.counters.items())
            ]
            sections.append(_render_table("counters", ["counter", "value"], rows))

        if self.gauges:
            rows = [
                (name, f"{value:g}")
                for name, value in sorted(self.gauges.items())
            ]
            sections.append(_render_table("gauges", ["gauge", "value"], rows))

        if len(sections) == 1:
            sections.append("(no spans or metrics recorded)")
        return "\n\n".join(sections)
