"""The central control point of the measurement campaign (Section 5.2.1).

"We were able to coordinate the activities of the transmitter, receiver and
the TAP tool under a centralized control point.  The end result was a set
of computers that recorded and analyzed data in real time.  If a packet was
lost, had an extremely long inter-departure or inter-arrival time, or there
was an incorrect ordering of packets on the transmitter and/or receiver,
all machines were halted and a snapshot of the data was taken.  We then
examined the snapshots to decide what error had occurred."

:class:`CampaignController` reproduces that rig: it taps the transmitter's
pre-transmit point and the receiver's classification point, tracks packet
ordering on both, applies inter-departure / inter-arrival deadlines, and on
the first anomaly halts the stream and captures a :class:`Snapshot` with
the recent event window and every machine's counters -- the debugging
artifact the paper calls "extremely good at helping to find bugs".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.ctmsp import CTMSPPacket
from repro.ring.frames import Frame
from repro.sim.units import MS, format_time

#: Anomaly kinds (the paper's three triggers).
LOST_PACKET = "lost_packet"
LONG_INTERVAL = "long_interval"
OUT_OF_ORDER = "out_of_order"


@dataclass(frozen=True)
class TraceEvent:
    """One observed event in the rolling window."""

    time_ns: int
    point: str  # "tx" (pre-transmit) or "rx" (classified)
    packet_no: int


@dataclass
class Snapshot:
    """Everything frozen at the moment of the halt."""

    anomaly: str
    detail: str
    halted_at: int
    recent_events: list[TraceEvent]
    transmitter_stats: dict[str, Any]
    receiver_stats: dict[str, Any]
    ring_stats: dict[str, Any]

    def render(self) -> str:
        lines = [
            f"SNAPSHOT at {format_time(self.halted_at)}: {self.anomaly}",
            f"  {self.detail}",
            "  recent events:",
        ]
        for ev in self.recent_events[-12:]:
            lines.append(
                f"    {format_time(ev.time_ns):>12}  {ev.point:>2}  "
                f"packet {ev.packet_no}"
            )
        for title, stats in (
            ("transmitter", self.transmitter_stats),
            ("receiver", self.receiver_stats),
            ("ring", self.ring_stats),
        ):
            lines.append(f"  {title}:")
            for key, value in stats.items():
                lines.append(f"    {key} = {value}")
        return "\n".join(lines)


class CampaignController:
    """Real-time anomaly watchdog over one CTMS stream."""

    def __init__(
        self,
        testbed,
        transmitter,
        receiver,
        session,
        max_interdeparture: int = 40 * MS,
        max_interarrival: int = 40 * MS,
        window: int = 64,
        halt_on_anomaly: bool = True,
    ) -> None:
        self.testbed = testbed
        self.sim = testbed.sim
        self.transmitter = transmitter
        self.receiver = receiver
        self.session = session
        self.max_interdeparture = max_interdeparture
        self.max_interarrival = max_interarrival
        self.halt_on_anomaly = halt_on_anomaly
        self.events: deque[TraceEvent] = deque(maxlen=window)
        self.snapshot: Optional[Snapshot] = None
        self.halted = False
        self._last_tx: Optional[tuple[int, int]] = None  # (time, packet_no)
        self._last_rx: Optional[tuple[int, int]] = None
        transmitter.tr_driver.add_probe("p3", self._on_tx)
        receiver.tr_driver.add_probe("p4", self._on_rx)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _on_tx(self, frame: Frame) -> Optional[int]:
        packet = frame.payload
        if not isinstance(packet, CTMSPPacket) or self.halted:
            return None
        now = self.sim.now
        self.events.append(TraceEvent(now, "tx", packet.packet_no))
        if self._last_tx is not None:
            t_prev, n_prev = self._last_tx
            if packet.packet_no < n_prev:
                self._trip(
                    OUT_OF_ORDER,
                    f"transmit order broke: {n_prev} then {packet.packet_no}",
                )
            elif now - t_prev > self.max_interdeparture:
                self._trip(
                    LONG_INTERVAL,
                    f"inter-departure {format_time(now - t_prev)} exceeded "
                    f"{format_time(self.max_interdeparture)} before packet "
                    f"{packet.packet_no}",
                )
        self._last_tx = (now, packet.packet_no)
        return None

    def _on_rx(self, frame: Frame) -> Optional[int]:
        packet = frame.payload
        if not isinstance(packet, CTMSPPacket) or self.halted:
            return None
        now = self.sim.now
        self.events.append(TraceEvent(now, "rx", packet.packet_no))
        if self._last_rx is not None:
            t_prev, n_prev = self._last_rx
            if packet.packet_no < n_prev:
                self._trip(
                    OUT_OF_ORDER,
                    f"receive order broke: {n_prev} then {packet.packet_no}",
                )
            elif packet.packet_no > n_prev + 1:
                self._trip(
                    LOST_PACKET,
                    f"packets {n_prev + 1}..{packet.packet_no - 1} never "
                    "arrived",
                )
            elif now - t_prev > self.max_interarrival:
                self._trip(
                    LONG_INTERVAL,
                    f"inter-arrival {format_time(now - t_prev)} exceeded "
                    f"{format_time(self.max_interarrival)} before packet "
                    f"{packet.packet_no}",
                )
        self._last_rx = (now, packet.packet_no)
        return None

    # ------------------------------------------------------------------
    # halt and snapshot
    # ------------------------------------------------------------------
    def _trip(self, anomaly: str, detail: str) -> None:
        if self.halted:
            return
        self.snapshot = Snapshot(
            anomaly=anomaly,
            detail=detail,
            halted_at=self.sim.now,
            recent_events=list(self.events),
            transmitter_stats=self._host_stats(self.transmitter),
            receiver_stats=self._host_stats(self.receiver),
            ring_stats={
                "frames_sent": self.testbed.ring.stats_frames_sent,
                "lost_to_purge": self.testbed.ring.stats_frames_lost_to_purge,
                "purges": self.testbed.ring.stats_purges,
                "pending": self.testbed.ring.pending_count(),
            },
        )
        if self.halt_on_anomaly:
            self.halted = True
            self.session.stop()

    @staticmethod
    def _host_stats(host) -> dict[str, Any]:
        return {
            "tx_packets": host.tr_driver.stats_tx_packets,
            "tx_queue_peak": host.tr_driver.stats_tx_queue_peak,
            "rx_ctmsp": host.tr_driver.stats_rx_ctmsp,
            "rx_dropped_no_mbufs": host.tr_driver.stats_rx_dropped_no_mbufs,
            "vca_packets_built": host.vca_driver.stats_packets_built,
            "vca_drops_no_mbufs": host.vca_driver.stats_drops_no_mbufs,
            "mbuf_peak_bytes": host.kernel.mbufs.peak_bytes_in_use(),
        }
