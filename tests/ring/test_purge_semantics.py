"""Purge timing semantics: seeded determinism and overlapping purges."""

from repro.ring.frames import Frame
from repro.ring.monitor import ActiveMonitor
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import HOUR, MS


def purge_timestamps(seed: int, rate_per_hour: float = 120.0) -> list[int]:
    sim = Simulator()
    ring = TokenRing(sim)
    RingStation(ring, "bystander")
    times: list[int] = []
    original = ring.purge

    def recording_purge(duration: int = 10 * MS) -> None:
        times.append(sim.now)
        original(duration)

    ring.purge = recording_purge
    monitor = ActiveMonitor(
        sim, ring, RandomStreams(seed), mac_utilization=0.0,
        soft_errors_per_hour=rate_per_hour,
    )
    monitor.start()
    sim.run(until=HOUR)
    return times


def test_soft_error_purges_are_seed_deterministic():
    a = purge_timestamps(seed=42)
    b = purge_timestamps(seed=42)
    assert len(a) > 10
    assert a == b


def test_soft_error_purges_differ_across_seeds():
    assert purge_timestamps(seed=1) != purge_timestamps(seed=2)


def test_purge_during_purge_extends_the_outage():
    """A second purge mid-outage pushes recovery out; it never shortens it."""
    sim = Simulator()
    ring = TokenRing(sim)
    tx = RingStation(ring, "tx")
    arrivals: list[int] = []
    RingStation(ring, "rx", receive=lambda frame: arrivals.append(sim.now))

    sim.at(1 * MS, ring.purge, 10 * MS)      # down until t=11 ms
    sim.at(6 * MS, ring.purge, 10 * MS)      # overlap: down until t=16 ms
    # Queued during the outage; can only go out after the *extended* end.
    sim.at(
        12 * MS,
        lambda: tx.transmit(Frame(src="tx", dst="rx", info_bytes=200)),
    )
    sim.run(until=40 * MS)

    assert ring.stats_purges == 2
    assert len(arrivals) == 1
    assert arrivals[0] > 16 * MS


def test_back_to_back_purges_do_not_shorten_the_outage():
    """A shorter purge inside a longer one leaves the end time alone."""
    sim = Simulator()
    ring = TokenRing(sim)
    tx = RingStation(ring, "tx")
    arrivals: list[int] = []
    RingStation(ring, "rx", receive=lambda frame: arrivals.append(sim.now))

    sim.at(1 * MS, ring.purge, 20 * MS)      # down until t=21 ms
    sim.at(2 * MS, ring.purge, 1 * MS)       # ends earlier; must not resume
    sim.at(
        4 * MS,
        lambda: tx.transmit(Frame(src="tx", dst="rx", info_bytes=200)),
    )
    sim.run(until=60 * MS)

    assert len(arrivals) == 1
    assert arrivals[0] > 21 * MS
