"""Named per-layer instruments: counters, gauges, histograms.

The paper's analysis artifact was the histogram ("Histograms as well as
means and standard deviations were computed...").  The registry reuses the
same :class:`~repro.measure.histogram.Histogram` type for distribution
instruments so every layer's telemetry renders and summarizes exactly like
the paper's figures, and adds counters (monotonic totals: packets, copies,
retries) and gauges (point-in-time levels: pool occupancy, queue depth).

Instrument names are dotted paths mirroring the package that owns the
quantity -- ``unix.mbuf.transmitter.bytes_in_use``,
``drivers.tr.transmitter.tx_queue_depth``, ``ring.utilization``,
``core.playout.depth_bytes``, ``obs.span.kernel-copy_ns`` -- so tables sort
into layers on their own.

Everything renders deterministically: JSON is emitted with sorted keys and
fixed separators, tables are sorted by instrument name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.measure.histogram import Histogram
from repro.sim.units import US


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    unit: str = "count"
    value: int = 0

    def incr(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only count up")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time level with min/max envelope."""

    name: str
    unit: str = "count"
    value: Optional[float] = None
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    samples: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        self.min_value = value if self.min_value is None else min(self.min_value, value)
        self.max_value = value if self.max_value is None else max(self.max_value, value)


class HistogramInstrument:
    """A distribution instrument wrapping the paper's Histogram type."""

    def __init__(self, name: str, unit: str = "ns", bin_width: int = 100 * US) -> None:
        self.name = name
        self.unit = unit
        self.histogram = Histogram(name=name, bin_width=bin_width)

    def record(self, value: int) -> None:
        self.histogram.add(value)

    @property
    def count(self) -> int:
        return self.histogram.count

    def summary(self) -> dict[str, float]:
        """Count/mean/std/min/max in the instrument's own unit."""
        h = self.histogram
        if h.count == 0:
            return {"count": 0}
        scale = US if self.unit == "ns" else 1
        return {
            "count": h.count,
            "mean": h.mean() / scale,
            "std": h.std() / scale,
            "min": h.min() / scale,
            "max": h.max() / scale,
        }


@dataclass
class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, HistogramInstrument] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str, unit: str = "count") -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name=name, unit=unit)
        return inst

    def gauge(self, name: str, unit: str = "count") -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name=name, unit=unit)
        return inst

    def histogram(
        self, name: str, unit: str = "ns", bin_width: int = 100 * US
    ) -> HistogramInstrument:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = HistogramInstrument(
                name, unit=unit, bin_width=bin_width
            )
        return inst

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Plain-data view of every instrument (deterministic ordering)."""
        return {
            "counters": {
                name: {"unit": c.unit, "value": c.value}
                for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: {
                    "unit": g.unit,
                    "value": g.value,
                    "min": g.min_value,
                    "max": g.max_value,
                    "samples": g.samples,
                }
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {"unit": h.unit, **h.summary()}
                for name, h in sorted(self.histograms.items())
            },
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def render_tables(self) -> str:
        """Aligned-text tables, one per instrument kind."""
        parts: list[str] = []
        if self.counters:
            parts.append(
                format_table(
                    "counters",
                    ["name", "value", "unit"],
                    [
                        [name, str(c.value), c.unit]
                        for name, c in sorted(self.counters.items())
                    ],
                )
            )
        if self.gauges:
            parts.append(
                format_table(
                    "gauges",
                    ["name", "value", "min", "max", "n", "unit"],
                    [
                        [
                            name,
                            _num(g.value),
                            _num(g.min_value),
                            _num(g.max_value),
                            str(g.samples),
                            g.unit,
                        ]
                        for name, g in sorted(self.gauges.items())
                    ],
                )
            )
        if self.histograms:
            rows = []
            for name, h in sorted(self.histograms.items()):
                s = h.summary()
                if s["count"] == 0:
                    rows.append([name, "0", "-", "-", "-", "-", h.unit])
                    continue
                unit = "us" if h.unit == "ns" else h.unit
                rows.append(
                    [
                        name,
                        str(int(s["count"])),
                        f"{s['mean']:.1f}",
                        f"{s['std']:.1f}",
                        f"{s['min']:.1f}",
                        f"{s['max']:.1f}",
                        unit,
                    ]
                )
            parts.append(
                format_table(
                    "histograms",
                    ["name", "n", "mean", "std", "min", "max", "unit"],
                    rows,
                )
            )
        return "\n\n".join(parts) if parts else "(no instruments registered)"


def _num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    if isinstance(value, float) and math.isfinite(value):
        return str(int(value))
    return str(value)


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """A fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    bar = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([title, bar, line(headers), bar] + [line(r) for r in rows] + [bar])
