"""The presentation machine: live playout with glitch detection.

The paper's success criterion is perceptual: data must reach "the subsystem
that is converting the digital data to audio in such a way that no
discernible glitches are heard."  :class:`PresentationMachine` is the
library's embodiment of that subsystem: it attaches to a CTMS sink, buffers
delivered packets, starts playout after a prefill, consumes at the media
rate *in simulated time*, and records every under-run as it happens -- so an
application (or experiment) can watch glitches occur live instead of
replaying traces afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.ctmsp import CTMSPPacket
from repro.sim.engine import Handle, Simulator
from repro.sim.units import SEC


@dataclass
class GlitchRecord:
    """One audible under-run."""

    at_ns: int
    starved_for_ns: int = 0


class PresentationMachine:
    """Consume a CTMS stream at its media rate, counting discernible glitches.

    Wire it to a sink by calling :meth:`on_packet` from the sink driver's
    delivery path (see :meth:`attach_to_vca`), or feed it manually.

    Parameters
    ----------
    sim:
        The simulator.
    rate_bytes_per_sec:
        Playout consumption rate (use the media source's per-period rate).
    prefill_bytes:
        Playout starts once this much data is buffered.
    capacity_bytes:
        Buffer bound; arrivals beyond it are dropped (counted).
    skip_ahead_after_ns:
        Graceful degradation: if a starvation lasts this long, the player
        gives up on the missing media, closes the glitch at this bounded
        duration, and *skips ahead* to resume at the live edge when data
        returns -- one audible dropout of known length instead of an
        open-ended stall.  ``None`` (the default) keeps the stalling
        behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_sec: float,
        prefill_bytes: int,
        capacity_bytes: int,
        skip_ahead_after_ns: Optional[int] = None,
    ) -> None:
        if rate_bytes_per_sec <= 0:
            raise ValueError("rate must be positive")
        if prefill_bytes > capacity_bytes:
            raise ValueError("prefill cannot exceed capacity")
        if skip_ahead_after_ns is not None and skip_ahead_after_ns <= 0:
            raise ValueError("skip-ahead window must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_sec
        self.prefill_bytes = prefill_bytes
        self.capacity_bytes = capacity_bytes
        self.skip_ahead_after_ns = skip_ahead_after_ns
        self._level = 0.0
        self._playing = False
        self._starved_since: Optional[int] = None
        self._last_drain = 0
        self._deadline: Optional[Handle] = None
        self._skip_timer: Optional[Handle] = None
        self._skipping = False
        self._skip_started = 0
        # --- observable state ---
        self.glitches: list[GlitchRecord] = []
        self.overflow_drops = 0
        self.bytes_played = 0.0
        self.peak_level = 0
        self.playout_started_at: Optional[int] = None
        #: Skip-ahead events performed (graceful-degradation mode).
        self.skips = 0
        #: Total simulated time spent skipped ahead (media abandoned).
        self.skipped_ns = 0

    # ------------------------------------------------------------------
    # input
    # ------------------------------------------------------------------
    def on_packet(self, data_bytes: int) -> None:
        """A packet's payload arrived at the sink."""
        if self._skipping:
            # Data returned after a skip-ahead: resume at the live edge.
            self._skipping = False
            self.skipped_ns += self.sim.now - self._skip_started
            self._last_drain = self.sim.now
        self._drain_to_now()
        if self._level + data_bytes > self.capacity_bytes:
            self.overflow_drops += 1
            return
        self._level += data_bytes
        self.peak_level = max(self.peak_level, math.ceil(self._level))
        if not self._playing and self._level >= self.prefill_bytes:
            self._playing = True
            self.playout_started_at = self.sim.now
            self._last_drain = self.sim.now
        if self._playing and self._starved_since is not None:
            # Starvation ends when data returns; close the glitch record.
            self.glitches[-1].starved_for_ns = (
                self.sim.now - self._starved_since
            )
            self._starved_since = None
            self._cancel_skip_timer()
        self._arm_deadline()

    def attach_to_vca(self, vca_driver) -> None:
        """Hook a VCA sink driver's delivery path into this player."""
        original = vca_driver.ctms_deliver

        def wrapped(frame, residency, chain):
            packet = frame.payload
            if isinstance(packet, CTMSPPacket):
                self.on_packet(packet.data_bytes)
            result = yield from original(frame, residency, chain)
            return result

        vca_driver.ctms_deliver = wrapped
        if vca_driver.tr_driver is not None and vca_driver.tr_driver.ctms_deliver is not None:
            vca_driver.tr_driver.ctms_deliver = wrapped

    # ------------------------------------------------------------------
    # playout mechanics
    # ------------------------------------------------------------------
    def _drain_to_now(self) -> None:
        if self._skipping or not self._playing or self._starved_since is not None:
            self._last_drain = self.sim.now
            return
        elapsed = self.sim.now - self._last_drain
        self._last_drain = self.sim.now
        need = self.rate * (elapsed / SEC)
        if need <= self._level:
            self._level -= need
            self.bytes_played += need
            return
        # The consumer ran dry partway through the interval: one glitch.
        played = self._level
        self.bytes_played += played
        self._level = 0.0
        dry_at = self.sim.now - round((need - played) / self.rate * SEC)
        self.glitches.append(GlitchRecord(at_ns=max(0, dry_at)))
        self._starved_since = max(0, dry_at)
        self._arm_skip_timer()

    def _arm_skip_timer(self) -> None:
        if self.skip_ahead_after_ns is None or self._starved_since is None:
            return
        self._cancel_skip_timer()
        fire_at = max(
            self.sim.now, self._starved_since + self.skip_ahead_after_ns
        )
        self._skip_timer = self.sim.at(fire_at, self._skip_ahead)

    def _cancel_skip_timer(self) -> None:
        if self._skip_timer is not None:
            self._skip_timer.cancel()
            self._skip_timer = None

    def _skip_ahead(self) -> None:
        """The starvation outlasted the skip window: abandon the gap."""
        self._skip_timer = None
        if self._starved_since is None:
            return
        self.glitches[-1].starved_for_ns = self.sim.now - self._starved_since
        self._starved_since = None
        self._skipping = True
        self._skip_started = self.sim.now
        self.skips += 1

    def _arm_deadline(self) -> None:
        """Schedule a check at the moment the buffer would run dry."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if self._skipping or not self._playing or self._starved_since is not None:
            return
        dry_in = round(self._level / self.rate * SEC) + 1
        self._deadline = self.sim.schedule(dry_in, self._deadline_check)

    def _deadline_check(self) -> None:
        self._deadline = None
        self._drain_to_now()
        # If we are now starved, the glitch was recorded by the drain.

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def level_bytes(self) -> float:
        """Current buffer level (drained to now)."""
        self._drain_to_now()
        return self._level

    @property
    def glitch_count(self) -> int:
        return len(self.glitches)
