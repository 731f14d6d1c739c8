"""The Active Monitor and the station-insertion process.

Section 4/5: Ring Purges "occur on the network primarily due to new stations
inserting into the network or old stations reinserting"; measurement put them
at ~20 a day (about one an hour), and a single insertion was observed to
cause "on the order of 10 Ring Purges back to back" -- the explanation for
the two 120-130 ms outliers in Figure 5-4.

The Active Monitor also sources the ring's MAC housekeeping traffic, which
the paper measured at 0.2-1.0 % of the 4 Mbit ring (50-250 frames/s of
~20-byte frames).
"""

from __future__ import annotations

from typing import Optional

from repro.hardware import calibration
from repro.ring.frames import mac_frame, ring_purge_frame
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import DAY


class ActiveMonitor:
    """The ring's Active Monitor station.

    Generates MAC housekeeping frames at a configurable ring utilization and
    executes Ring Purges on demand (the :class:`InsertionProcess` calls in).
    """

    def __init__(
        self,
        sim: Simulator,
        ring: TokenRing,
        rng: RandomStreams,
        mac_utilization: float = calibration.MAC_TRAFFIC_UTILIZATION_LOW,
        address: str = "active-monitor",
        soft_errors_per_hour: float = 0.0,
    ) -> None:
        if not 0.0 <= mac_utilization < 0.5:
            raise ValueError(f"implausible MAC utilization {mac_utilization}")
        if soft_errors_per_hour < 0:
            raise ValueError("negative soft-error rate")
        self.sim = sim
        self.ring = ring
        self.station = RingStation(ring, address)
        self.mac_utilization = mac_utilization
        #: Section 5: "a soft error on the Token Ring and the Token Ring
        #: timing out and resetting of the network" -- isolated single
        #: purges not caused by insertions, at a low Poisson rate.
        self.soft_errors_per_hour = soft_errors_per_hour
        self._rng = rng.get("active-monitor")
        self._mac_gap_rate: Optional[float] = None
        self._running = False
        self.stats_mac_frames = 0
        self.stats_purges_issued = 0
        self.stats_soft_errors = 0

    def start(self) -> None:
        """Begin emitting MAC housekeeping traffic and soft-error purges."""
        if self._running:
            return
        self._running = True
        if self.mac_utilization > 0:
            self.sim.schedule_fast(self._next_gap(), self._emit_mac)
        if self.soft_errors_per_hour > 0:
            self._schedule_soft_error()

    def _schedule_soft_error(self) -> None:
        from repro.sim.units import HOUR

        gap = max(
            1,
            round(self._rng.expovariate(self.soft_errors_per_hour / HOUR)),
        )
        self.sim.schedule_fast(gap, self._soft_error)

    def _soft_error(self) -> None:
        self.stats_soft_errors += 1
        self.purge()
        self._schedule_soft_error()

    def _next_gap(self) -> int:
        # Mean inter-frame gap so that MAC wire time / total time equals the
        # requested utilization; exponential spacing.  The MAC wire time is
        # a constant, so the rate is computed once and cached.
        rate = self._mac_gap_rate
        if rate is None:
            wire = mac_frame(self.station.address).wire_time_ns
            rate = self._mac_gap_rate = self.mac_utilization / wire
        return max(1, round(self._rng.expovariate(rate)))

    def _emit_mac(self) -> None:
        self.stats_mac_frames += 1
        self.station.transmit(mac_frame(self.station.address))
        self.sim.schedule_fast(self._next_gap(), self._emit_mac)

    def purge(self, duration: int = calibration.RING_PURGE_DURATION) -> None:
        """Purge the ring once (transmitting the Ring Purge MAC frame)."""
        self.stats_purges_issued += 1
        self.ring.purge(duration)
        # The purge frame itself appears on the wire once the ring is
        # usable again.
        self.station.transmit(ring_purge_frame(self.station.address))


class InsertionProcess:
    """Poisson station insertions, each causing a burst of Ring Purges."""

    def __init__(
        self,
        sim: Simulator,
        monitor: ActiveMonitor,
        rng: RandomStreams,
        insertions_per_day: float = calibration.RING_INSERTIONS_PER_DAY,
        burst_low: int = 8,
        burst_high: int = calibration.RING_INSERTION_PURGE_BURST + 3,
    ) -> None:
        if insertions_per_day < 0:
            raise ValueError("negative insertion rate")
        self.sim = sim
        self.monitor = monitor
        self._rng = rng.get("insertions")
        self.insertions_per_day = insertions_per_day
        self.burst_low = burst_low
        self.burst_high = burst_high
        self._running = False
        self.stats_insertions = 0
        self.insertion_times: list[int] = []

    def start(self) -> None:
        if self._running or self.insertions_per_day <= 0:
            return
        self._running = True
        self._schedule_next()

    def _mean_gap_ns(self) -> float:
        return DAY / self.insertions_per_day

    def _schedule_next(self) -> None:
        if self.insertions_per_day <= 0:
            return
        gap = max(1, round(self._rng.expovariate(1.0 / self._mean_gap_ns())))
        self.sim.schedule_fast(gap, self._insert)

    def _insert(self) -> None:
        self.stats_insertions += 1
        self.insertion_times.append(self.sim.now)
        # "we have seen on the order of 10 Ring Purges back to back":
        # consecutive purges, each extending the outage.
        burst = self._rng.randint(self.burst_low, self.burst_high)
        for i in range(burst):
            self.sim.schedule_fast(
                i * calibration.RING_PURGE_DURATION,
                self._purge_once,
            )
        self._schedule_next()

    def _purge_once(self) -> None:
        self.monitor.purge()
