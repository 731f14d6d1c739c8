"""The paper-era instruments share the span recorder's timeline."""

import pytest

from repro.hardware import calibration
from repro.measure.pseudo_driver import PROBE_INTRUSION, PseudoDriverTracer, TraceEntry
from repro.obs.span import PointEvent, SpanRecorder
from repro.sim.engine import Simulator

pytestmark = pytest.mark.obs


def test_trace_entry_is_a_point_event():
    entry = TraceEntry("p2", 17, 122_000)
    assert isinstance(entry, PointEvent)
    assert entry.quantized_ns == entry.t_ns == 122_000
    assert (entry.point, entry.packet_no) == ("p2", 17)


def test_pseudo_driver_mirrors_into_recorder():
    sim = Simulator()
    rec = SpanRecorder(sim)
    tracer = PseudoDriverTracer(sim, recorder=rec)
    probe = tracer.probe("p2")
    sim.schedule(calibration.RTPC_CLOCK_GRANULARITY + 5, lambda: probe(9))
    sim.run()
    assert probe(9) == PROBE_INTRUSION
    # Both the instrument's own entries and the shared timeline quantize
    # identically to the 122 us clock.
    assert [e.quantized_ns for e in tracer.entries] == [p.t_ns for p in rec.points]
    assert rec.points[0].point == "p2" and rec.points[0].packet_no == 9


def test_pseudo_driver_without_recorder_unchanged():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    tracer.probe("p3")(4)
    assert len(tracer.entries) == 1
