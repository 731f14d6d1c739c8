"""Delivery statistics for one CTMSP stream.

Collects what the paper's Section 5.3 measurements need from the sink side:
per-packet source-to-classification latency, inter-arrival times, loss and
duplicate counts, and achieved throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.ctmsp import CTMSPPacket
from repro.sim.units import SEC


@dataclass
class StreamStats:
    """Aggregated sink-side observations."""

    delivered: int = 0
    duplicates: int = 0
    gap_events: int = 0
    bytes_delivered: int = 0
    #: Source-interrupt-to-delivery latency per accepted packet (ns).
    latencies_ns: list[int] = field(default_factory=list)
    #: Delivery timestamps per accepted packet (ns).
    arrival_times: list[int] = field(default_factory=list)
    first_arrival: Optional[int] = None
    last_arrival: Optional[int] = None

    def record_delivery(
        self, packet: CTMSPPacket, now_ns: int, outcome: str = "ok"
    ) -> None:
        """Record one classified packet (called by the sink driver)."""
        if outcome == "duplicate":
            self.duplicates += 1
            return
        if outcome == "gap":
            self.gap_events += 1
        self.delivered += 1
        self.bytes_delivered += packet.info_bytes
        self.latencies_ns.append(now_ns - packet.born_at)
        self.arrival_times.append(now_ns)
        if self.first_arrival is None:
            self.first_arrival = now_ns
        self.last_arrival = now_ns

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def inter_arrival_ns(self) -> list[int]:
        """Gaps between consecutive accepted packets."""
        times = self.arrival_times
        return [b - a for a, b in zip(times, times[1:])]

    def throughput_bytes_per_sec(self) -> float:
        """Achieved delivery rate over the observed window."""
        if (
            self.first_arrival is None
            or self.last_arrival is None
            or self.last_arrival == self.first_arrival
        ):
            return 0.0
        span = self.last_arrival - self.first_arrival
        return self.bytes_delivered / (span / SEC)

    def max_latency_ns(self) -> int:
        return max(self.latencies_ns) if self.latencies_ns else 0

    def min_latency_ns(self) -> int:
        return min(self.latencies_ns) if self.latencies_ns else 0

    def worst_gap_ns(self) -> int:
        """Longest delivery stall (the buffer-sizing input of Section 6)."""
        gaps = self.inter_arrival_ns()
        return max(gaps) if gaps else 0
