"""Testbed-level flight recorder.

A :class:`FlightRecorder` rides along on a testbed and, when asked --
typically by the fault-injection invariant monitor at the *first* moment a
stream invariant trips -- freezes a :class:`FlightSnapshot`: the metric
registry's current values, the tail of the recent span record, and the
open spans that were in flight.  This is the avionics idiom: the verdict
("stream starved at t=4.2s") comes with the last seconds of telemetry that
led up to it, instead of only an end-state report.

The coupling is deliberately one-way and duck-typed: ``repro.faults`` never
imports ``repro.obs`` -- the invariant monitor just calls
``testbed.flight_recorder.snapshot(...)`` if the attribute is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, SpanRecorder


@dataclass
class FlightSnapshot:
    """Everything the recorder froze at one trigger instant."""

    reason: str
    at_ns: int
    detail: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    recent_spans: list[Span] = field(default_factory=list)
    open_spans: list[Span] = field(default_factory=list)


class FlightRecorder:
    """Snapshot-on-trigger wrapper around a recorder and a registry."""

    def __init__(
        self,
        recorder: Optional[SpanRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        tail: int = 32,
        max_snapshots: int = 8,
    ) -> None:
        self.recorder = recorder
        self.metrics = metrics
        self.tail = tail
        self.max_snapshots = max_snapshots
        self.snapshots: list[FlightSnapshot] = []
        self.stats_suppressed = 0

    def snapshot(
        self, reason: str, at_ns: int, detail: Optional[dict[str, Any]] = None
    ) -> Optional[FlightSnapshot]:
        """Freeze current telemetry.  Bounded; extra triggers are counted."""
        if len(self.snapshots) >= self.max_snapshots:
            self.stats_suppressed += 1
            return None
        snap = FlightSnapshot(
            reason=reason,
            at_ns=at_ns,
            detail=dict(detail or {}),
            metrics=self.metrics.as_dict() if self.metrics is not None else {},
            recent_spans=(
                list(self.recorder.spans[-self.tail :])
                if self.recorder is not None
                else []
            ),
            open_spans=(
                sorted(
                    self.recorder._open.values(),
                    key=lambda s: (s.start_ns, s.track, s.name),
                )
                if self.recorder is not None
                else []
            ),
        )
        self.snapshots.append(snap)
        return snap

    def render(self) -> str:
        """Human-readable dump of every snapshot, deterministic."""
        if not self.snapshots:
            return "flight recorder: no snapshots"
        lines: list[str] = []
        for i, snap in enumerate(self.snapshots):
            lines.append(
                f"snapshot {i}: {snap.reason} at t={snap.at_ns / 1_000_000:.3f} ms"
            )
            for key in sorted(snap.detail):
                lines.append(f"  {key}: {snap.detail[key]}")
            if snap.open_spans:
                lines.append(f"  in flight ({len(snap.open_spans)} spans):")
                for span in snap.open_spans:
                    lines.append(
                        f"    {span.track:<28} {span.name:<22} "
                        f"open since {span.start_ns / 1_000_000:.3f} ms"
                    )
            if snap.recent_spans:
                lines.append(f"  last {len(snap.recent_spans)} closed spans:")
                for span in snap.recent_spans:
                    lines.append(
                        f"    {span.track:<28} {span.name:<22} "
                        f"[{span.start_ns / 1_000_000:.3f}, "
                        f"{span.end_ns / 1_000_000:.3f}] ms "
                        f"({span.duration_ns / 1000:.1f} us)"
                    )
            counters = snap.metrics.get("counters", {})
            if counters:
                lines.append("  counters:")
                for name in sorted(counters):
                    lines.append(
                        f"    {name:<44} {counters[name]['value']}"
                    )
        if self.stats_suppressed:
            lines.append(f"({self.stats_suppressed} further triggers suppressed)")
        return "\n".join(lines)
