"""Tests for the PC/AT timestamper, its error model, and reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import calibration
from repro.hardware.parallel_port import ParallelPort
from repro.measure.pcat import (
    CLOCK_MODULUS,
    MARKER_CHANNEL,
    PcatTimestamper,
    match_by_packet_number,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC, US


def build(seed=4):
    sim = Simulator()
    tool = PcatTimestamper(sim, RandomStreams(seed))
    return sim, tool


def test_edge_produces_record_with_quantized_clock():
    sim, tool = build()
    port = ParallelPort(sim)
    tool.connect(0, port)
    sim.schedule(10 * MS, port.emit, 42)
    sim.run(until=11 * MS)
    assert len(tool.records) == 1
    rec = tool.records[0]
    assert rec.has(0)
    assert rec.values[0] == 42
    # 10ms / 2us = 5000 counts, plus service delay of up to ~120us.
    assert 5000 <= rec.clock16 <= 5000 + 60


def test_service_delay_within_error_budget():
    """Reconstructed time never deviates more than the paper's ~120us."""
    sim, tool = build()
    port = ParallelPort(sim)
    tool.connect(0, port)
    truth = []
    for i in range(200):
        t = (i + 1) * 12 * MS
        truth.append(t)
        sim.schedule(t, port.emit, i & 0x7F)
    sim.run(until=3 * SEC)
    times = tool.channel_times(0)
    assert len(times) == 200
    for measured, actual in zip(times, truth):
        err = measured - actual
        assert 0 <= err <= calibration.PCAT_EXPECTED_SPREAD + 2 * US


def test_marker_channel_reserved():
    sim, tool = build()
    with pytest.raises(ValueError):
        tool.connect(MARKER_CHANNEL, ParallelPort(sim))
    with pytest.raises(ValueError):
        tool.connect(9, ParallelPort(sim))


def test_rollover_reconstruction_across_minutes():
    """16-bit 2us clock rolls over every 131ms; the 50Hz marker saves us."""
    sim, tool = build()
    tool.start()
    port = ParallelPort(sim)
    tool.connect(0, port)
    truth = []
    # Sparse events: one per second, far beyond one rollover period apart.
    for i in range(10):
        t = (i + 1) * SEC
        truth.append(t)
        sim.schedule(t, port.emit, i)
    sim.run(until=11 * SEC)
    times = tool.channel_times(0)
    assert len(times) == 10
    for measured, actual in zip(times, truth):
        assert abs(measured - actual) <= 200 * US


def test_without_marker_sparse_events_misreconstruct():
    """Sanity check: the marker channel is what makes rollovers decodable."""
    sim, tool = build()
    port = ParallelPort(sim)
    tool.connect(0, port)
    sim.schedule(1 * SEC, port.emit, 0)
    sim.schedule(2 * SEC, port.emit, 1)  # ~7.6 rollovers later
    sim.run(until=3 * SEC)
    times = tool.channel_times(0)
    gap = times[1] - times[0]
    assert abs(gap - 1 * SEC) > 100 * MS  # grossly wrong without the marker


def test_concurrent_edges_share_one_record():
    sim, tool = build()
    p0, p1 = ParallelPort(sim), ParallelPort(sim)
    tool.connect(0, p0)
    tool.connect(1, p1)

    def both():
        p0.emit(1)
        p1.emit(2)

    sim.schedule(5 * MS, both)
    sim.run(until=6 * MS)
    assert len(tool.records) == 1
    rec = tool.records[0]
    assert rec.has(0) and rec.has(1)


def test_match_by_packet_number_simple():
    earlier = [(1000, 5), (13000, 6), (25000, 7)]
    later = [(11740, 5), (23740, 6), (35740, 7)]
    pairs = match_by_packet_number(earlier, later)
    assert pairs == [(10740, 5), (10740, 6), (10740, 7)]


def test_match_skips_lost_packets():
    earlier = [(1000, 5), (13000, 6), (25000, 7)]
    later = [(11740, 5), (35740, 7)]  # packet 6 lost in flight
    pairs = match_by_packet_number(earlier, later)
    assert [n for _d, n in pairs] == [5, 7]


def test_match_handles_7bit_wraparound():
    earlier = [(i * 12 * MS, i & 0x7F) for i in range(120, 140)]
    later = [(i * 12 * MS + 10 * MS, i & 0x7F) for i in range(120, 140)]
    pairs = match_by_packet_number(earlier, later)
    assert len(pairs) == 20
    assert all(d == 10 * MS for d, _n in pairs)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50))
def test_reconstruction_monotonic(gaps_ms):
    """Reconstructed absolute times are always non-decreasing."""
    sim, tool = build()
    tool.start()
    port = ParallelPort(sim)
    tool.connect(0, port)
    t = 0
    for gap in gaps_ms:
        t += gap * MS
        sim.schedule(t, port.emit, 1)
    sim.run(until=t + SEC)
    times = tool.channel_times(0)
    assert times == sorted(times)
