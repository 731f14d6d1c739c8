"""Observability layer: spans, metrics, exporters, flight recorder.

``repro.obs`` is *observe-only* in exactly the sense ``repro.measure`` is:
it may read from any model layer but must never mutate model state,
schedule simulation events, or read a wall clock -- ctms-lint rule CTMS302
holds both packages to that contract.  Everything here rides inside hook
points the model already exposes (IRQ listeners, driver probes, ring
monitors, delivery handles), so a traced run replays the exact event
calendar of an untraced one.
"""

from repro import _lazy_facade

__getattr__, __dir__, __all__ = _lazy_facade(__name__, {
    "CATEGORIES": "span",
    "CATEGORY_ADAPTER": "span",
    "CATEGORY_CONTROL": "controlstats",
    "CATEGORY_DISK": "span",
    "CATEGORY_KERNEL_COPY": "span",
    "CATEGORY_PLAYOUT": "span",
    "CATEGORY_PROTOCOL": "span",
    "CATEGORY_RING": "span",
    "CONTROL_COUNTERS": "controlstats",
    "CampaignProgress": "telemetry",
    "ControlPlaneMetrics": "controlstats",
    "Counter": "metrics",
    "DataPathTracer": "instrument",
    "FLEET_COUNTERS": "fleetstats",
    "FlightRecorder": "flight",
    "FlightSnapshot": "flight",
    "Gauge": "metrics",
    "HistogramInstrument": "metrics",
    "InstantEvent": "span",
    "MetricsRegistry": "metrics",
    "PointEvent": "span",
    "Span": "span",
    "SpanRecorder": "span",
    "TraceContext": "span",
    "WorkerSpotlight": "telemetry",
    "chrome_trace": "export",
    "fleet_counts": "fleetstats",
    "fleet_summary": "fleetstats",
    "is_telemetry": "telemetry",
    "packet_key": "span",
    "progress": "telemetry",
    "render_chrome_json": "export",
    "write_chrome_trace": "export",
})
