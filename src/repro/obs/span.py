"""Span-based per-packet tracing over the simulated clock.

The paper measured its data path at four fixed points (Section 5.2).  This
module generalizes that idea: any stretch of the path -- source interrupt
latency, the kernel copy path, adapter DMA, ring transit, playout -- becomes
a :class:`Span` with integer-nanosecond ``start``/``end`` read from the
*simulated* clock.  Nothing here ever reads a wall clock or schedules a
simulation event: a :class:`SpanRecorder` is a passive notebook that the
instrumentation layer writes into from inside existing callbacks, so a
traced run and an untraced run execute the exact same event calendar.

The recorder also owns :class:`PointEvent`, the unified point-record type
shared with the paper-era tools (``measure.pseudo_driver`` aliases its
``TraceEntry`` to it), so the four classic measurement points and the span
tracer live on one timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

from repro.sim.engine import Simulator

#: The data-path span categories, in path order.  Exporters and metrics key
#: off these exact strings.
CATEGORY_DISK = "disk"
CATEGORY_KERNEL_COPY = "kernel-copy"
CATEGORY_PROTOCOL = "protocol"
CATEGORY_ADAPTER = "adapter"
CATEGORY_RING = "ring"
CATEGORY_PLAYOUT = "playout"

CATEGORIES = (
    CATEGORY_DISK,
    CATEGORY_KERNEL_COPY,
    CATEGORY_ADAPTER,
    CATEGORY_RING,
    CATEGORY_PROTOCOL,
    CATEGORY_PLAYOUT,
)


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The context a packet carries along the data path.

    Attached to ``CTMSPPacket.trace_ctx`` by the transmit-side
    instrumentation; every later observation point keys its spans off it.
    """

    stream_id: int
    packet_no: int
    born_ns: int


@dataclass(frozen=True, slots=True)
class PointEvent:
    """One timestamped occurrence of a named measurement point.

    This is the shape the paper's pseudo device driver recorded (point
    name, packet number, timestamp); ``measure.pseudo_driver.TraceEntry``
    is an alias of this type.
    """

    point: str
    packet_no: int
    t_ns: int


@dataclass(slots=True)
class Span:
    """A named interval on the simulated clock."""

    name: str
    category: str
    track: str
    start_ns: int
    end_ns: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(slots=True)
class InstantEvent:
    """A zero-duration marker (a lost frame, a control-plane decision)."""

    name: str
    category: str
    track: str
    t_ns: int
    args: dict[str, Any] = field(default_factory=dict)


def packet_key(stream_id: int, packet_no: int, category: str) -> tuple:
    """The open-span key for one packet's span in one category."""
    return ("pkt", stream_id, packet_no, category)


class SpanRecorder:
    """Collects spans, instants and point events against one simulator.

    All methods are plain synchronous calls intended to run inside
    existing model callbacks (probes, listeners, delivery wrappers); none
    of them schedules anything, so recording is invisible to the event
    calendar.  Spans begun but never ended are *dropped at export* --
    determinism over completeness.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        #: Bound lazily when None: harnesses that build their simulator
        #: internally (``run_scenario``) bind the recorder on assembly.
        self.sim = sim
        self.enabled = True
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.points: list[PointEvent] = []
        self._open: dict[Hashable, Span] = {}
        self.stats_dropped_open = 0

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        key: Hashable,
        name: str,
        category: str,
        track: str,
        **args: Any,
    ) -> None:
        """Open a span at ``sim.now``.  Re-beginning a live key replaces it."""
        if not self.enabled:
            return
        if key in self._open:
            self.stats_dropped_open += 1
        self._open[key] = Span(
            name=name,
            category=category,
            track=track,
            start_ns=self.sim.now,
            end_ns=self.sim.now,
            args=dict(args),
        )

    def end(self, key: Hashable, **args: Any) -> Optional[Span]:
        """Close the span opened under ``key`` at ``sim.now``.

        Unknown keys are ignored (the matching ``begin`` may belong to a
        packet that predates attachment, or the span was already closed).
        """
        if not self.enabled:
            return None
        span = self._open.pop(key, None)
        if span is None:
            return None
        span.end_ns = self.sim.now
        span.args.update(args)
        self.spans.append(span)
        return span

    def add_span(
        self,
        name: str,
        category: str,
        track: str,
        start_ns: int,
        end_ns: int,
        **args: Any,
    ) -> Optional[Span]:
        """Record a span with explicit endpoints (e.g. a wire transit)."""
        if not self.enabled:
            return None
        if end_ns < start_ns:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(name, category, track, start_ns, end_ns, dict(args))
        self.spans.append(span)
        return span

    def instant(
        self,
        name: str,
        category: str,
        track: str,
        t_ns: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a zero-duration marker (defaults to ``sim.now``)."""
        if not self.enabled:
            return
        self.instants.append(
            InstantEvent(
                name,
                category,
                track,
                self.sim.now if t_ns is None else t_ns,
                dict(args),
            )
        )

    def point(
        self, point: str, packet_no: int, t_ns: Optional[int] = None
    ) -> None:
        """Record one classic measurement-point occurrence."""
        if not self.enabled:
            return
        self.points.append(
            PointEvent(point, packet_no, self.sim.now if t_ns is None else t_ns)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def categories(self) -> list[str]:
        """Distinct span categories recorded, sorted."""
        return sorted({s.category for s in self.spans})

    def spans_by_category(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.category, []).append(span)
        return out

    def packet_waterfalls(self) -> dict[tuple[int, int], list[Span]]:
        """Per-packet span groups keyed by ``(stream_id, packet_no)``.

        Only spans carrying both ``stream_id`` and ``packet_no`` args
        participate; each group is sorted by start time.
        """
        out: dict[tuple[int, int], list[Span]] = {}
        for span in self.spans:
            sid = span.args.get("stream_id")
            no = span.args.get("packet_no")
            if sid is None or no is None:
                continue
            out.setdefault((sid, no), []).append(span)
        for group in out.values():
            group.sort(key=lambda s: (s.start_ns, s.end_ns, s.category))
        return out

    def worst_packet(self) -> Optional[tuple[tuple[int, int], list[Span]]]:
        """The packet with the largest first-span-start to last-span-end."""
        worst: Optional[tuple[tuple[int, int], list[Span]]] = None
        worst_ns = -1
        waterfalls = self.packet_waterfalls()
        for key in sorted(waterfalls):
            group = waterfalls[key]
            total = max(s.end_ns for s in group) - min(s.start_ns for s in group)
            if total > worst_ns:
                worst_ns = total
                worst = (key, group)
        return worst
