"""The PC/AT parallel-port timestamper (Section 5.2.3).

The paper's best tool: an IBM PC/AT with an eight-channel parallel input
board, time stamping strobed bytes inside an interrupt-handler polling loop
and shipping records to a second PC/AT for storage.

Error model, as the paper characterized it:

* the clock read is a **16-bit counter at 2 us resolution**, so absolute
  time must be reconstructed across rollovers (every 131 ms);
* a **50 Hz marker** wired to the eighth channel guarantees at least one
  record between any two rollovers;
* the polling loop contributes a **service delay** between the strobe edge
  and the clock read: 12 us best case, **60 us worst case**, plus up to one
  more loop worth when the outbound transfer to the second PC/AT is in
  progress -- together producing the "120 microsecond spread on both sides"
  the paper measured against the VCA's (near-perfect) IRQ line;
* edges on multiple channels inside one loop iteration share one clock
  value (the loop reads all pending ports, then queues one record).

Raw records are what the tool stores; :meth:`PcatTimestamper.reconstruct`
is the paper's offline analysis program, turning 16-bit clock values back
into absolute times using the marker channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware import calibration
from repro.hardware.parallel_port import ParallelPort
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

#: Channel index carrying the 50 Hz rollover marker.
MARKER_CHANNEL = 7
#: Clock counts per rollover.
CLOCK_MODULUS = 1 << calibration.PCAT_CLOCK_BITS


@dataclass(frozen=True)
class PcatRecord:
    """One stored record: which channels fired, the clock, their bytes."""

    channel_bits: int
    clock16: int
    values: tuple[Optional[int], ...]  # per channel, None if not latched

    def has(self, channel: int) -> bool:
        return bool(self.channel_bits & (1 << channel))


class PcatTimestamper:
    """The two-PC/AT measurement rig."""

    CHANNELS = 8

    def __init__(self, sim: Simulator, rng: RandomStreams, name: str = "pcat") -> None:
        self.sim = sim
        self.name = name
        self._rng = rng.get(name)
        self.records: list[PcatRecord] = []
        self._pending: dict[int, int] = {}  # channel -> latched byte
        self._pending_deadline: Optional[int] = None
        self._marker_running = False
        self.stats_edges = 0
        self.stats_records = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, channel: int, port: ParallelPort) -> None:
        """Cable a machine's parallel output port to input ``channel``."""
        if not 0 <= channel < self.CHANNELS:
            raise ValueError(f"channel {channel} out of range")
        if channel == MARKER_CHANNEL:
            raise ValueError("channel 7 is reserved for the 50 Hz marker")
        port.sink = lambda t, v, ch=channel: self._edge(ch, t, v)

    def start(self) -> None:
        """Start the 50 Hz rollover marker."""
        if not self._marker_running:
            self._marker_running = True
            self._marker_tick()

    def _marker_tick(self) -> None:
        self._edge(MARKER_CHANNEL, self.sim.now, 1)
        self.sim.schedule_fast(calibration.PCAT_ROLLOVER_MARKER_PERIOD, self._marker_tick)

    # ------------------------------------------------------------------
    # capture (the interrupt-handler polling loop)
    # ------------------------------------------------------------------
    def _edge(self, channel: int, t_ns: int, value: int) -> None:
        self.stats_edges += 1
        self._pending[channel] = value & 0xFF
        # The loop notices the interrupt bit on its next poll; edges landing
        # inside the same service window coalesce into one record.
        if self._pending_deadline is None:
            read_at = t_ns + self._service_delay()
            self._pending_deadline = read_at
            self.sim.at_fast(read_at, self._loop_reads)

    def _service_delay(self) -> int:
        base = self._rng.randint(
            calibration.PCAT_LOOP_BEST_CASE, calibration.PCAT_LOOP_WORST_CASE
        )
        # One extra loop's worth when the (fully handshaked) transfer to the
        # second PC/AT happens to be in progress.
        if self._rng.random() < 0.25:
            base += self._rng.randint(0, calibration.PCAT_LOOP_WORST_CASE)
        return base

    def _loop_reads(self) -> None:
        self._pending_deadline = None
        if not self._pending:
            return
        bits = 0
        values: list[Optional[int]] = [None] * self.CHANNELS
        for ch, v in self._pending.items():
            bits |= 1 << ch
            values[ch] = v
        self._pending.clear()
        clock16 = (self.sim.now // calibration.PCAT_CLOCK_RESOLUTION) % CLOCK_MODULUS
        self.stats_records += 1
        self.records.append(PcatRecord(bits, clock16, tuple(values)))

    # ------------------------------------------------------------------
    # offline analysis (what ran on the second PC/AT's data)
    # ------------------------------------------------------------------
    def reconstruct(self) -> dict[int, list[tuple[int, int]]]:
        """Rebuild absolute times: channel -> [(time_ns, value), ...].

        Walks the record stream accumulating rollovers whenever the 16-bit
        clock goes backwards; the 50 Hz marker guarantees the stream never
        skips a whole rollover silently.
        """
        out: dict[int, list[tuple[int, int]]] = {c: [] for c in range(self.CHANNELS)}
        rollovers = 0
        prev_clock: Optional[int] = None
        for rec in self.records:
            if prev_clock is not None and rec.clock16 < prev_clock:
                rollovers += 1
            prev_clock = rec.clock16
            abs_ns = (
                rollovers * CLOCK_MODULUS + rec.clock16
            ) * calibration.PCAT_CLOCK_RESOLUTION
            for ch in range(self.CHANNELS):
                if rec.has(ch):
                    out[ch].append((abs_ns, rec.values[ch] or 0))
        return out

    def channel_times(self, channel: int) -> list[int]:
        """Reconstructed absolute times for one channel."""
        return [t for t, _v in self.reconstruct()[channel]]


def match_by_packet_number(
    earlier: list[tuple[int, int]], later: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pair events across two channels by their 7-bit packet numbers.

    Both lists are time-ordered ``(time_ns, wire_number)`` streams from
    :meth:`PcatTimestamper.reconstruct`.  Returns ``(delta_ns, wire_number)``
    per matched pair: for each later-channel event, the most recent
    earlier-channel event with the same 7-bit number (skipping earlier
    events whose packets never reached the later point -- losses).
    """
    deltas: list[tuple[int, int]] = []
    i = 0
    for t_later, number in later:
        # Advance through earlier events at or before this one, remembering
        # the latest with a matching number.
        match: Optional[int] = None
        while i < len(earlier) and earlier[i][0] <= t_later:
            if earlier[i][1] == number:
                match = earlier[i][0]
                i += 1
                break
            i += 1
        if match is not None:
            deltas.append((t_later - match, number))
    return deltas
