"""Tests for the pseudo-driver tracer and the logic analyzer."""

from repro.core.ctmsp import CTMSP_HEADER_BYTES, CTMSPPacket, PrecomputedHeader
from repro.hardware import calibration
from repro.measure.logic_analyzer import LogicAnalyzer
from repro.measure.pseudo_driver import PROBE_INTRUSION, PseudoDriverTracer
from repro.sim.engine import Simulator
from repro.sim.units import MS, US


def ctmsp_frame(n):
    pkt = CTMSPPacket(
        1, n, 7, 2000 - CTMSP_HEADER_BYTES, header=PrecomputedHeader(src="a", dst="b")
    )
    return pkt.to_frame()


# ---------------------------------------------------------------------------
# pseudo-driver tracer
# ---------------------------------------------------------------------------

def test_pseudo_driver_quantizes_to_122us():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("p3")
    times = []
    for t in (100 * US, 250 * US, 10 * MS + 3 * US):
        sim.schedule(t, lambda t=t: times.append(probe(1)))
    sim.run()
    granule = calibration.RTPC_CLOCK_GRANULARITY
    assert [e.quantized_ns for e in tracer.entries] == [
        (t // granule) * granule for t in (100 * US, 250 * US, 10 * MS + 3 * US)
    ]


def test_pseudo_driver_reports_intrusion_cost():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("p3")
    assert probe(5) == PROBE_INTRUSION


def test_pseudo_driver_disable_flag():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("p3")
    tracer.enabled = False
    assert probe(1) == 0
    assert tracer.entries == []


def test_pseudo_driver_reads_packet_number_from_frames():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("p4")
    probe(ctmsp_frame(17))
    assert tracer.entries[0].packet_no == 17


def test_pseudo_driver_intervals():
    sim = Simulator()
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("x")
    for t in (0, 12 * MS, 24 * MS):
        sim.schedule(t, probe, 0)
    sim.run()
    granule = calibration.RTPC_CLOCK_GRANULARITY
    times = tracer.times("x")
    for interval in (b - a for a, b in zip(times, times[1:])):
        assert abs(interval - 12 * MS) <= granule


# ---------------------------------------------------------------------------
# logic analyzer
# ---------------------------------------------------------------------------

def test_logic_analyzer_records_exact_edges():
    la = LogicAnalyzer()
    listeners = []
    la.attach(listeners)
    for t in (5, 100, 10_000):
        listeners[0](t)
    assert la.edges == [5, 100, 10_000]


def test_logic_analyzer_depth_limit():
    la = LogicAnalyzer(depth=3)
    for t in range(10):
        la.on_edge(t)
    assert len(la.edges) == 3
    assert la.stats_overflowed


def test_logic_analyzer_trigger():
    la = LogicAnalyzer()
    la.trigger = lambda t: t >= 100
    for t in (10, 50, 100, 150):
        la.on_edge(t)
    assert la.edges == [100, 150]


def test_logic_analyzer_deviation_measure():
    la = LogicAnalyzer()
    for t in (0, 12 * MS + 300, 24 * MS - 200):
        la.on_edge(t)
    assert la.max_deviation_from(12 * MS) == 500
    assert LogicAnalyzer().max_deviation_from(12 * MS) == 0
