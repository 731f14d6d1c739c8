"""Playout buffering: the Section 6 sizing argument and a playout simulator.

Section 6: "the worst case times between transmission and reception of a
single packet is 40 milliseconds.  There are two exceptional data points
within the 120 to 130 millisecond range. ... Even with these exceptional
data points, the buffer space needed for 150KBytes/sec CTMSP data transfer
is under 25KBytes."

The sizing rule is delay-bandwidth: to survive a delivery stall of D while
consuming at rate R, the sink must hold R*D of data (rounded up to whole
packets).  The :class:`PlayoutBuffer` checks a sizing against an actual
delivery trace: fill to a threshold, then drain at the nominal rate, and
count underruns ("discernible glitches").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sim.units import SEC


def required_buffer_bytes(
    rate_bytes_per_sec: float,
    worst_case_delay_ns: int,
    packet_bytes: int = 2000,
) -> int:
    """Buffer needed to ride out ``worst_case_delay_ns`` at a given rate.

    Rounded up to whole packets, plus one packet of slop for the packet in
    transit when the stall begins (the paper's "under 25KBytes" for
    150 KB/s across a 130 ms worst case).
    """
    if rate_bytes_per_sec <= 0:
        raise ValueError("rate must be positive")
    if worst_case_delay_ns < 0:
        raise ValueError("negative delay")
    raw = rate_bytes_per_sec * (worst_case_delay_ns / SEC)
    packets = math.ceil(raw / packet_bytes) + 1
    return packets * packet_bytes


def max_drawdown_bytes(
    arrival_times_ns: list[int],
    rate_bytes_per_sec: float,
    packet_bytes: int = 2000,
) -> int:
    """Worst cumulative deficit of arrivals against a constant drain.

    The exact buffer requirement for a delivery trace: the largest amount by
    which consumption at ``rate_bytes_per_sec`` ever outruns the arrivals.
    Handles compound stalls (two ring insertions close together) that
    single-worst-gap sizing underestimates.
    """
    if not arrival_times_ns:
        return 0
    t0 = arrival_times_ns[0]
    worst = 0.0
    peak_credit = 0.0  # max of (arrived - drained) so far
    for i, t in enumerate(arrival_times_ns):
        drained = rate_bytes_per_sec * ((t - t0) / SEC)
        credit_before = i * packet_bytes - drained
        worst = max(worst, peak_credit - credit_before)
        peak_credit = max(peak_credit, credit_before + packet_bytes)
    return math.ceil(worst)


@dataclass
class PlayoutBuffer:
    """Replay a delivery trace through a fixed-size playout buffer.

    Packets of ``packet_bytes`` arrive at the times given to :meth:`run`;
    playout starts once ``prefill_bytes`` are buffered and then consumes at
    ``rate_bytes_per_sec`` continuously.  An underrun (buffer empty when the
    consumer needs data) is a glitch; an arrival that would exceed
    ``capacity_bytes`` is an overflow drop.
    """

    capacity_bytes: int
    rate_bytes_per_sec: float
    packet_bytes: int = 2000
    prefill_bytes: int = 0
    glitches: int = 0
    overflow_drops: int = 0
    peak_occupancy: int = 0
    playout_started_at: float | None = None

    _level: float = field(default=0.0, repr=False)
    _last_time: float = field(default=0.0, repr=False)
    _started: bool = field(default=False, repr=False)

    def run(self, arrival_times_ns: list[int]) -> "PlayoutBuffer":
        """Consume a full trace; returns self for chaining."""
        for t in arrival_times_ns:
            self.offer(t)
        return self

    def offer(self, t_ns: int) -> None:
        """One packet arrives at ``t_ns`` (times must be non-decreasing)."""
        self._drain_until(t_ns)
        if self._level + self.packet_bytes > self.capacity_bytes:
            self.overflow_drops += 1
            return
        self._level += self.packet_bytes
        self.peak_occupancy = max(self.peak_occupancy, math.ceil(self._level))
        if not self._started and self._level >= self.prefill_bytes:
            self._started = True
            self.playout_started_at = float(t_ns)

    def _drain_until(self, t_ns: int) -> None:
        if t_ns < self._last_time:
            raise ValueError("arrivals must be time-ordered")
        if self._started:
            elapsed = t_ns - self._last_time
            need = self.rate_bytes_per_sec * (elapsed / SEC)
            if need > self._level:
                # The consumer ran dry: one audible glitch for the stall.
                self.glitches += 1
                self._level = 0.0
            else:
                self._level -= need
        self._last_time = float(t_ns)

    def finish(self, t_ns: int) -> None:
        """Drain out to ``t_ns`` (end of experiment) to catch tail glitches."""
        self._drain_until(t_ns)
