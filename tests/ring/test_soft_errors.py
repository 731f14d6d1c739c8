"""Tests for soft-error Ring Purges (the paper's non-insertion purges)."""

import pytest

from repro.ring.monitor import ActiveMonitor
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import HOUR, SEC


def test_soft_errors_purge_at_the_configured_rate():
    sim = Simulator()
    ring = TokenRing(sim)
    RingStation(ring, "bystander")
    monitor = ActiveMonitor(
        sim, ring, RandomStreams(3), mac_utilization=0.0,
        soft_errors_per_hour=60.0,
    )
    monitor.start()
    sim.run(until=2 * HOUR)
    # 60/hour over 2 hours -> ~120, Poisson tolerance.
    assert 80 <= monitor.stats_soft_errors <= 170
    assert ring.stats_purges == monitor.stats_soft_errors


def test_soft_errors_default_off():
    sim = Simulator()
    ring = TokenRing(sim)
    monitor = ActiveMonitor(sim, ring, RandomStreams(3), mac_utilization=0.0)
    monitor.start()
    sim.run(until=HOUR)
    assert monitor.stats_soft_errors == 0
    assert ring.stats_purges == 0


def test_negative_rate_rejected():
    sim = Simulator()
    ring = TokenRing(sim)
    with pytest.raises(ValueError):
        ActiveMonitor(
            sim, ring, RandomStreams(0), soft_errors_per_hour=-1.0
        )


def test_soft_error_is_a_single_purge_not_a_burst():
    """Unlike insertions (bursts of ~10), a soft error purges once (~10ms)."""
    sim = Simulator()
    ring = TokenRing(sim)
    a = RingStation(ring, "a")
    b = RingStation(ring, "b")
    monitor = ActiveMonitor(
        sim, ring, RandomStreams(5), mac_utilization=0.0,
        soft_errors_per_hour=0.0,
    )
    monitor.start()
    monitor.stats_soft_errors += 1
    monitor.purge()
    arrivals = []
    b.receive = lambda f: arrivals.append(sim.now)
    from repro.ring.frames import Frame

    a.transmit(Frame(src="a", dst="b", info_bytes=100))
    sim.run(until=SEC)
    # The ring recovers after one ~10ms outage, not ~100ms.
    assert arrivals and arrivals[0] < 40_000_000
