"""The token-passing medium.

Access mechanics modeled:

* one token; a station may capture it only for a frame whose priority is at
  least the token's priority;
* one frame per capture; the transmitter releases a new token after its frame
  has circulated back (release = capture + serialization + ring latency);
* the released token's priority is raised to the highest priority waiting
  anywhere on the ring (the 802.5 reservation mechanism, simplified: we skip
  the stacking-station bookkeeping but keep its observable effect -- a
  waiting CTMSP frame gets the very next token, and the priority decays to 0
  as soon as nothing high-priority is waiting);
* Ring Purge makes the ring unusable for its duration and loses the frame in
  flight, *without telling the transmitter* -- the paper's sole uncorrectable
  loss (the stock adapter gives no Ring Purge interrupt, Section 4).

The token's position advances analytically while the ring is idle, so an
idle ring costs zero simulation events.

Only observable deliveries go on the calendar.  A frame reaches a station's
host only through its ``receive`` hook, and a MAC frame only if the station
sets ``accept_mac_frames`` (Section 4: the adapter ROM does not pass MAC
frames to the host).  Every other delivery would change nothing, so it is
not scheduled.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hardware import calibration
from repro.ring.frames import BROADCAST, Frame, FrameClass
from repro.sim.engine import Handle, SimulationError, Simulator

#: Time for the 3-byte token itself to pass a station.
TOKEN_TIME_NS = calibration.TOKEN_BYTES * calibration.TOKEN_RING_NS_PER_BYTE

#: Transmit-completion status values passed to ``on_complete`` callbacks.
TX_OK = "ok"
TX_LOST_IN_PURGE = "lost_in_purge"


class _Request:
    __slots__ = ("station", "frame", "on_complete", "enqueued_at")

    def __init__(self, station, frame, on_complete, enqueued_at):
        self.station = station
        self.frame = frame
        self.on_complete = on_complete
        self.enqueued_at = enqueued_at


class TokenRing:
    """A 4 Mbit token ring shared by all attached stations.

    Parameters
    ----------
    sim:
        The simulator.
    total_stations:
        Physical ring size used for latency computation; the paper's ring had
        70 stations even though only a handful are modeled in software.
    """

    def __init__(
        self,
        sim: Simulator,
        total_stations: int = calibration.TOKEN_RING_DEFAULT_STATIONS,
    ) -> None:
        if total_stations < 2:
            raise ValueError("a ring needs at least two stations")
        self.sim = sim
        self.total_stations = total_stations
        self.hop_ns = calibration.STATION_LATENCY_NS
        self.stations: list = []
        self._by_address: dict[str, object] = {}
        #: Wire observers: called as fn(frame, t_wire_start, status).
        self.monitors: list[Callable[[Frame, int, str], None]] = []
        #: Fault-injection hooks: each is called with the frame at capture
        #: time; if any returns True the frame is corrupted on the wire --
        #: it occupies the medium normally and the transmitter sees a normal
        #: completion (the paper's silent-loss semantics, Section 4), but no
        #: station receives it.  Installed by
        #: :class:`repro.faults.injectors.FaultInjector`.
        self.fault_filters: list[Callable[[Frame], bool]] = []

        # token state.  Capture/release/delivery are scheduled with the
        # allocation-free tier and cancelled *logically*: each carries the
        # epoch counter current when it was queued, and a bump (purge,
        # capture retarget) makes in-flight entries identify themselves as
        # stale and return.  Only the rare purge-resume keeps a Handle.
        self._token_priority = 0
        self._token_ref_pos = 0.0
        self._token_ref_time = 0
        self._holder: Optional[_Request] = None
        self._capture_epoch = 0
        self._capture_time = -1  # arrival of the pending capture, -1 if none
        self._capture_target: Optional[_Request] = None
        self._release_epoch = 0
        self._delivery_epoch = 0
        self._down_until = 0
        self._purge_resume: Optional[Handle] = None
        self._requests: list[_Request] = []

        # --- statistics ---
        self.stats_frames_sent = 0
        self.stats_frames_lost_to_purge = 0
        self.stats_frames_lost_to_fault = 0
        self.stats_lost_by_protocol: dict[str, int] = {}
        self.stats_busy_ns = 0
        self.stats_purges = 0
        self.stats_by_protocol: dict[str, dict[str, int]] = {}
        self.stats_token_wait_ns: dict[str, int] = {}

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, station) -> int:
        """Attach ``station``; returns its ring position."""
        if station.address in self._by_address:
            raise ValueError(f"duplicate ring address {station.address!r}")
        position = len(self.stations)
        if position >= self.total_stations:
            raise SimulationError(
                "more modeled stations than physical ring positions"
            )
        self.stations.append(station)
        self._by_address[station.address] = station
        return position

    @property
    def ring_latency_ns(self) -> int:
        """One full circulation of the quiescent ring."""
        return self.total_stations * self.hop_ns

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def request_transmit(
        self,
        station,
        frame: Frame,
        on_complete: Optional[Callable[[Frame, str], None]] = None,
    ) -> None:
        """Queue ``frame`` for transmission from ``station``.

        ``on_complete(frame, status)`` fires when the transmitting adapter
        sees its transmission finish.  ``status`` is :data:`TX_LOST_IN_PURGE`
        when a Ring Purge destroyed the frame -- information the *ring* has
        but which stock adapter firmware does not surface to the driver
        (Section 4); adapter models decide what to do with it.
        """
        self._requests.append(
            _Request(station, frame, on_complete, self.sim.now)
        )
        self._evaluate()

    # ------------------------------------------------------------------
    # token mechanics
    # ------------------------------------------------------------------
    def _token_position(self, at_time: int) -> float:
        elapsed = at_time - self._token_ref_time
        return (self._token_ref_pos + elapsed / self.hop_ns) % self.total_stations

    def _evaluate(self) -> None:
        """(Re)schedule the next token capture if the ring is free."""
        if self._holder is not None or not self._requests:
            return
        now = self.sim.now
        if now < self._down_until:
            self._schedule_purge_resume()
            return
        requests = self._requests
        if len(requests) == 1:
            # Dominant case on a clean ring: one waiting frame.  The general
            # path below reduces to "lower the token to its priority if
            # needed and capture at its station" -- skip the comprehensions.
            request = requests[0]
            if request.frame.priority < self._token_priority:
                self._token_priority = request.frame.priority
            pos = self._token_position(now)
            hops = (request.station.position - pos) % self.total_stations
            arrival = now + round(hops * self.hop_ns) + TOKEN_TIME_NS
        else:
            eligible = [
                r for r in requests if r.frame.priority >= self._token_priority
            ]
            if not eligible:
                # Nothing may take the token at its current priority; in real
                # 802.5 the stacking station lowers it after one rotation.
                self._token_priority = max(r.frame.priority for r in requests)
                eligible = [
                    r
                    for r in requests
                    if r.frame.priority >= self._token_priority
                ]
            pos = self._token_position(now)
            best: Optional[tuple[tuple[int, int], _Request]] = None
            for request in eligible:
                hops = (request.station.position - pos) % self.total_stations
                arrival = now + round(hops * self.hop_ns) + TOKEN_TIME_NS
                # Tie-break equal arrivals (same station) by priority: a
                # station that captures the token sends its most urgent frame
                # first (pinned by the hop-level reference model).
                key = (arrival, -request.frame.priority)
                if best is None or key < best[0]:
                    best = (key, request)
            assert best is not None
            (arrival, _neg_priority), request = best
        if self._capture_time >= 0:
            if self._capture_target is request and self._capture_time <= arrival:
                return
            self._capture_epoch += 1  # invalidate the pending capture
        self._capture_target = request
        self._capture_time = arrival
        self.sim.at_fast(arrival, self._capture, request, self._capture_epoch)

    def _capture(self, request: _Request, epoch: int) -> None:
        if epoch != self._capture_epoch:
            return  # retargeted or purged since this entry was queued
        self._capture_time = -1
        self._capture_target = None
        if request not in self._requests:  # pragma: no cover - defensive
            self._evaluate()
            return
        self._requests.remove(request)
        self._holder = request
        frame = request.frame
        now = self.sim.now
        self.stats_token_wait_ns[frame.protocol] = (
            self.stats_token_wait_ns.get(frame.protocol, 0)
            + (now - request.enqueued_at)
        )
        wire = frame.wire_time_ns
        self.stats_busy_ns += wire
        # Per-protocol accounting, inline: this runs once per frame on the
        # wire and is the hottest non-CPU dispatch in the tree.
        entry = self.stats_by_protocol.get(frame.protocol)
        if entry is None:
            entry = self.stats_by_protocol[frame.protocol] = {
                "frames": 0, "bytes": 0, "wire_ns": 0
            }
        entry["frames"] += 1
        entry["bytes"] += frame.info_bytes + frame.framing_bytes
        entry["wire_ns"] += wire
        faulted = bool(self.fault_filters) and any(
            flt(frame) for flt in self.fault_filters
        )
        for monitor in self.monitors:
            monitor(frame, now, "lost" if faulted else "wire")
        # Deliveries: each destination sees the full frame after it has
        # traveled the intervening hops and been fully serialized.  A frame
        # corrupted by an injected fault still occupies the wire for its
        # full serialization but reaches no one; the transmitter is not
        # told (status stays TX_OK at release).
        if faulted:
            self.stats_frames_lost_to_fault += 1
            self.stats_lost_by_protocol[frame.protocol] = (
                self.stats_lost_by_protocol.get(frame.protocol, 0) + 1
            )
        else:
            src_pos = request.station.position
            delivery_epoch = self._delivery_epoch
            destinations = self._destinations(frame)
            if frame.frame_class is FrameClass.MAC:
                destinations = [d for d in destinations if d.accept_mac_frames]
            for dst in destinations:
                if dst.receive is not None:
                    self.sim.schedule_fast(
                        wire + self._hop_delay(src_pos, dst),
                        self._deliver, dst, frame, delivery_epoch,
                    )
        release_after = wire + self.ring_latency_ns
        self.sim.schedule_fast(
            release_after, self._release, request, TX_OK, self._release_epoch
        )

    def _hop_delay(self, src_pos: int, dst) -> int:
        """From the end of serialization at ``src_pos`` to arrival at ``dst``."""
        hops = (dst.position - src_pos) % self.total_stations
        return round(hops * self.hop_ns)

    def _destinations(self, frame: Frame) -> list:
        if frame.dst == BROADCAST:
            return [s for s in self.stations if s.address != frame.src]
        dst = self._by_address.get(frame.dst)
        return [dst] if dst is not None else []

    def _deliver(self, dst, frame: Frame, epoch: int) -> None:
        if epoch != self._delivery_epoch:
            return  # the frame was lost to a purge while in flight
        dst.receive(frame)

    def _release(self, request: _Request, status: str, epoch: int) -> None:
        if epoch != self._release_epoch:
            return  # the holder lost its frame to a purge
        self._holder = None
        # Reservation: the released token carries the highest waiting
        # priority; 0 when nothing waits.
        priority = 0
        for r in self._requests:
            if r.frame.priority > priority:
                priority = r.frame.priority
        self._token_priority = priority
        # The released token departs *downstream*: the releasing station
        # cannot recapture it until it circulates the whole ring (caught by
        # cross-validation against the hop-level reference model).
        self._token_ref_pos = (
            request.station.position + 0.001
        ) % self.total_stations
        self._token_ref_time = self.sim.now
        self.stats_frames_sent += 1
        if request.on_complete is not None:
            request.on_complete(request.frame, status)
        self._evaluate()

    # ------------------------------------------------------------------
    # Ring Purge
    # ------------------------------------------------------------------
    def purge(self, duration: int = calibration.RING_PURGE_DURATION) -> None:
        """The Active Monitor purges the ring.

        The ring is unusable until the purge completes; a frame in flight is
        lost.  The transmitter still sees a normal transmit completion at the
        time its serialization would have ended (stock firmware surfaces no
        purge indication), but with status :data:`TX_LOST_IN_PURGE` so that
        *optional* recovery models (Section 4's hypothetical purge-interrupt
        mode) can be built on top.
        """
        now = self.sim.now
        self.stats_purges += 1
        self._down_until = max(self._down_until, now + duration)
        if self._capture_time >= 0:
            self._capture_epoch += 1
            self._capture_time = -1
            self._capture_target = None
        if self._holder is not None:
            lost = self._holder
            self._holder = None
            # Logically cancel the in-flight deliveries and the pending
            # release: bump their epochs so the queued entries no-op.
            self._delivery_epoch += 1
            self._release_epoch += 1
            self.stats_frames_lost_to_purge += 1
            proto = lost.frame.protocol
            self.stats_lost_by_protocol[proto] = (
                self.stats_lost_by_protocol.get(proto, 0) + 1
            )
            for monitor in self.monitors:
                monitor(lost.frame, now, "lost")
            # The adapter believes the transmit completed normally at the
            # time serialization would have finished.
            tx_end = max(now + 1, now)  # serialization truncated by the purge
            self.sim.at(
                tx_end, self._notify_lost_transmitter, lost
            )
        self._schedule_purge_resume()

    def _notify_lost_transmitter(self, request: _Request) -> None:
        if request.on_complete is not None:
            request.on_complete(request.frame, TX_LOST_IN_PURGE)

    def _schedule_purge_resume(self) -> None:
        if self._purge_resume is not None:
            if self._purge_resume.time >= self._down_until:
                return
            self._purge_resume.cancel()
        self._purge_resume = self.sim.at(self._down_until, self._purge_done)

    def _purge_done(self) -> None:
        self._purge_resume = None
        if self.sim.now < self._down_until:
            self._schedule_purge_resume()
            return
        # Fresh token from the Active Monitor at priority 0, position 0.
        self._token_priority = 0
        self._token_ref_pos = 0.0
        self._token_ref_time = self.sim.now
        self._evaluate()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the wire carried frames."""
        return self.stats_busy_ns / elapsed_ns if elapsed_ns else 0.0

    def pending_count(self) -> int:
        """Frames queued ring-wide awaiting the token."""
        return len(self._requests) + (1 if self._holder else 0)
