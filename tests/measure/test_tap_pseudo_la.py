"""Tests for TAP, the pseudo-driver tracer, and the logic analyzer."""

import pytest

from repro.core.ctmsp import PrecomputedHeader, standard_packet
from repro.hardware import calibration
from repro.measure.logic_analyzer import LogicAnalyzer
from repro.measure.pseudo_driver import PROBE_INTRUSION, PseudoDriverTracer
from repro.measure.tap import TapMonitor
from repro.ring.frames import Frame, mac_frame
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, US


def build_ring_with_tap():
    sim = Simulator()
    ring = TokenRing(sim)
    a = RingStation(ring, "a")
    b = RingStation(ring, "b")
    tap = TapMonitor(sim, ring)
    return sim, ring, a, b, tap


def ctmsp_frame(n):
    pkt = standard_packet(1, n, 7, header=PrecomputedHeader(src="a", dst="b"))
    return pkt.to_frame()


# ---------------------------------------------------------------------------
# TAP
# ---------------------------------------------------------------------------

def test_tap_records_the_papers_fields():
    sim, ring, a, b, tap = build_ring_with_tap()
    a.transmit(ctmsp_frame(3))
    sim.run(until=100 * MS)
    assert len(tap.records) == 1
    rec = tap.records[0]
    assert rec.total_length == 2021  # info + LLC framing on the wire
    assert len(rec.data_prefix) == 96  # "up to 96 bytes"
    assert rec.frame_control == 0x40  # LLC
    assert rec.packet_no == 3
    assert rec.status == "wire"


def test_tap_sees_mac_frames_too():
    sim, ring, a, b, tap = build_ring_with_tap()
    a.transmit(mac_frame("a"))
    sim.run(until=100 * MS)
    assert tap.records[0].protocol == "mac"
    assert tap.records[0].frame_control == 0x00
    assert tap.records[0].total_length == 20


def test_tap_capture_rate_limitation():
    """Back-to-back frames outrun the tool's record path."""
    sim, ring, a, b, tap = build_ring_with_tap()
    for i in range(10):
        a.transmit(Frame(src="a", dst="b", info_bytes=5, protocol="ip"))
    sim.run(until=SEC)
    # 26-byte frames take ~52us on the wire plus token turnaround (~25us
    # ring latency); that is below TAP's 120us minimum record gap, so some
    # records are missed.
    assert tap.stats_missed > 0
    assert len(tap.records) + tap.stats_missed == 10


def test_tap_detects_lost_ctmsp_packets():
    sim, ring, a, b, tap = build_ring_with_tap()
    for i in range(5):
        sim.schedule(i * 20 * MS, a.transmit, ctmsp_frame(i))
    # Purge during packet 2's flight (capture happens near 40ms, wire time
    # ~4ms -- purge at 42ms lands mid-frame).
    sim.schedule(42 * MS, ring.purge)
    sim.run(until=SEC)
    anomalies = tap.detect_ctmsp_anomalies()
    assert anomalies["lost"] >= 1
    assert anomalies["out_of_order"] == 0


def test_tap_size_census_matches_traffic_classes():
    sim, ring, a, b, tap = build_ring_with_tap()
    sim.schedule(0, a.transmit, mac_frame("a"))
    sim.schedule(5 * MS, a.transmit, Frame(src="a", dst="b", info_bytes=1501, protocol="ip"))
    sim.schedule(15 * MS, a.transmit, ctmsp_frame(0))
    sim.run(until=SEC)
    census = tap.size_census()
    assert census["mac"] == [20]
    assert census["ip"] == [1522]  # the paper's file-transfer size
    assert census["ctmsp"] == [2021]


def test_tap_utilization_by_class():
    sim, ring, a, b, tap = build_ring_with_tap()
    for i in range(10):
        sim.schedule(i * 12 * MS, a.transmit, ctmsp_frame(i))
    sim.run(until=120 * MS)
    util = tap.utilization_by_class(120 * MS)
    assert util["ctmsp"] == pytest.approx(10 * 2021 * 8 * 250 / (120 * MS), rel=0.01)


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
    for interval in tracer.intervals("x"):
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
