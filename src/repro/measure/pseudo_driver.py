"""The pseudo device driver tracer (Section 5.2.1) -- the intrusive tool.

"We made the first attempt at time stamping events by using a pseudo device
driver. ... the clock granularity was only 122 microseconds.  All in all,
this was a poor method of recording data on inter-packet arrival and
departure times, but was extremely good at helping to find bugs."

Error model: timestamps quantize to the RT/PC's 122 us clock, and each
probe *intrudes* -- it charges CPU inside the measured path (the paper's
dilemma about running the recording procedure with interrupts enabled or
disabled).  Probes return their intrusion cost so the driver charges it
inline, exactly where the real procedure call sat.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware import calibration
from repro.obs.span import PointEvent, SpanRecorder
from repro.sim.engine import Simulator
from repro.sim.units import US

#: Cost of the recording procedure call inside the measured path.
PROBE_INTRUSION = 18 * US


class TraceEntry(PointEvent):
    """A pseudo-driver record: a :class:`PointEvent` whose timestamp is the
    122 us-quantized reading.  Kept as a named subclass so traces read as
    what the instrument wrote; ``quantized_ns`` is the historical accessor.
    """

    @property
    def quantized_ns(self) -> int:
        return self.t_ns


class PseudoDriverTracer:
    """In-kernel event recording through a pseudo device."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "pseudo",
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.entries: list[TraceEntry] = []
        self.enabled = True  # the open() flag in the Token Ring driver
        #: Optional shared span recorder: every entry is mirrored onto the
        #: common timeline so the paper's four points and the span tracer
        #: coexist in one trace.
        self.recorder = recorder

    def probe(self, point: str):
        """Build a driver probe for ``point``.

        Returns a callable usable as a driver probe: records the (quantized)
        time and returns the intrusion cost for the driver to charge.
        """

        def record(frame_or_no) -> int:
            if not self.enabled:
                return 0
            packet_no = getattr(
                getattr(frame_or_no, "payload", None), "packet_no", None
            )
            if packet_no is None:
                packet_no = frame_or_no if isinstance(frame_or_no, int) else -1
            granule = calibration.RTPC_CLOCK_GRANULARITY
            quantized = (self.sim.now // granule) * granule
            self.entries.append(TraceEntry(point, packet_no, quantized))
            if self.recorder is not None:
                self.recorder.point(point, packet_no, t_ns=quantized)
            return PROBE_INTRUSION

        return record

    def times(self, point: str) -> list[int]:
        return [e.quantized_ns for e in self.entries if e.point == point]
