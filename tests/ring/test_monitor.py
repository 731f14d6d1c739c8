"""Tests for the Active Monitor's MAC traffic and the insertion process."""

import pytest

from repro.hardware import calibration
from repro.ring.frames import Frame
from repro.ring.monitor import ActiveMonitor, InsertionProcess
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import HOUR, MINUTE, MS, SEC


def build(mac_util=0.002, insertions_per_day=0.0):
    sim = Simulator()
    ring = TokenRing(sim)
    rng = RandomStreams(11)
    monitor = ActiveMonitor(sim, ring, rng, mac_utilization=mac_util)
    inserter = InsertionProcess(
        sim, monitor, rng, insertions_per_day=insertions_per_day
    )
    return sim, ring, monitor, inserter


def test_mac_traffic_hits_requested_utilization_band():
    sim, ring, monitor, _ = build(mac_util=0.005)
    RingStation(ring, "bystander")
    monitor.start()
    sim.run(until=30 * SEC)
    mac = ring.stats_by_protocol.get("mac", {"wire_ns": 0})
    util = mac["wire_ns"] / (30 * SEC)
    assert util == pytest.approx(0.005, rel=0.25)


def test_paper_mac_rate_band_is_50_to_250_frames_per_second():
    # Section 4: 0.2%..1.0% of a 4Mbit ring in ~20-byte MAC frames means
    # 50..250 interrupts per second if the host saw them.
    for util, low, high in [(0.002, 40, 75), (0.010, 220, 330)]:
        sim, ring, monitor, _ = build(mac_util=util)
        RingStation(ring, "bystander")
        monitor.start()
        sim.run(until=20 * SEC)
        rate = monitor.stats_mac_frames / 20
        assert low <= rate <= high


def test_mac_utilization_zero_emits_nothing():
    sim, ring, monitor, _ = build(mac_util=0.0)
    monitor.start()
    sim.run(until=5 * SEC)
    assert monitor.stats_mac_frames == 0


def test_implausible_utilization_rejected():
    sim = Simulator()
    ring = TokenRing(sim)
    with pytest.raises(ValueError):
        ActiveMonitor(sim, ring, RandomStreams(0), mac_utilization=0.9)


def test_insertions_cause_purge_bursts():
    sim, ring, monitor, inserter = build(insertions_per_day=24 * 60.0)  # 1/min
    RingStation(ring, "bystander")
    inserter.start()
    sim.run(until=10 * MINUTE)
    assert inserter.stats_insertions >= 3
    # Every insertion purges 8..13 times back to back.
    assert ring.stats_purges >= 8 * inserter.stats_insertions


def test_insertion_outage_is_on_the_order_of_100ms():
    sim, ring, monitor, inserter = build()
    RingStation(ring, "bystander")
    dest = RingStation(ring, "dest")
    arrivals = []
    dest.receive = lambda f: arrivals.append(sim.now)
    # Force one insertion immediately.
    inserter._running = True
    inserter._insert()
    inserter.stop()
    src = ring.stations[0]
    src.transmit(Frame(src=src.address, dst="dest", info_bytes=100))
    sim.run(until=2 * SEC)
    # Burst of 8-13 purges at 10ms each: ring down 80..130ms.
    assert arrivals
    assert 80 * MS <= arrivals[0] <= 140 * MS


def test_insertion_rate_roughly_one_per_hour():
    sim, ring, monitor, inserter = build(
        insertions_per_day=calibration.RING_INSERTIONS_PER_DAY
    )
    inserter.start()
    sim.run(until=12 * HOUR)
    # 20/day = ~10 in 12h; Poisson so allow a broad band.
    assert 3 <= inserter.stats_insertions <= 20


def test_stopped_inserter_stops():
    sim, ring, monitor, inserter = build(insertions_per_day=24 * 600.0)
    inserter.start()
    sim.run(until=1 * MINUTE)
    count = inserter.stats_insertions
    inserter.stop()
    sim.run(until=2 * MINUTE)
    assert inserter.stats_insertions == count


def test_purge_issues_ring_purge_mac_frame():
    sim, ring, monitor, _ = build()
    seen = []
    ring.monitors.append(lambda f, t, s: seen.append(f.payload))
    monitor.purge()
    sim.run(until=SEC)
    assert "ring_purge" in seen
