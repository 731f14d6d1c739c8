"""Control-plane observability: the observer behind the duck type.

Layering keeps :mod:`repro.core.control` from importing ``repro.obs``, so
the control plane reports through a duck-typed ``observer`` exposing three
methods -- ``count(name, n)``, ``gauge(name, value)``, and
``span(event, t_ns, **fields)``.  :class:`ControlPlaneMetrics` is the real
implementation: counters and gauges land in a
:class:`~repro.obs.metrics.MetricsRegistry`, decisions become
:class:`~repro.obs.span.InstantEvent` markers on a ``control`` track, and
an ordered ``decisions`` list keeps the full policy trace for tests and
reports.

Observe-only contract (CTMS302): nothing here mutates model state or
schedules events; attaching this observer must not change a single event
count or timestamp -- the failover experiment's observe-only guard test
pins that.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecorder

#: Span category for control-plane decision markers.
CATEGORY_CONTROL = "control"


class ControlPlaneMetrics:
    """Bridges control-plane reports into metrics and decision spans."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        #: Every ``span()`` report in emission order:
        #: ``(t_ns, event, fields)`` -- the policy audit trail.
        self.decisions: list[tuple[int, str, dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # the duck-typed observer interface consumed by SessionControlPlane
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).incr(n)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def span(self, event: str, t_ns: int, **fields: Any) -> None:
        self.decisions.append((t_ns, event, dict(fields)))
        if self.recorder is not None:
            self.recorder.instant(
                event, CATEGORY_CONTROL, "control-plane", t_ns=t_ns, **fields
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Deterministic text table of the decision trail."""
        lines = [f"control-plane decisions ({len(self.decisions)})"]
        for t_ns, event, fields in self.decisions:
            extras = " ".join(
                f"{k}={v}" for k, v in sorted(fields.items())
            )
            lines.append(f"  t={t_ns:>14}ns  {event:<20} {extras}".rstrip())
        return "\n".join(lines)
