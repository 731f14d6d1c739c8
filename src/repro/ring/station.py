"""Ring attachment points.

A :class:`RingStation` is the MAC-layer identity of one adapter on the ring:
an address, a physical position (which determines token access delay), and a
receive hook.  Adapters own stations; lightweight traffic generators can own
one directly without a full machine model behind it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ring.frames import Frame
from repro.ring.network import TokenRing


class RingStation:
    """One attachment to the ring."""

    def __init__(
        self,
        ring: TokenRing,
        address: str,
        receive: Optional[Callable[[Frame], None]] = None,
        accept_mac_frames: bool = False,
    ) -> None:
        self.ring = ring
        self.address = address
        #: Called with each frame addressed to (or broadcast past) us.  A
        #: station without one is never delivered to (the ring schedules
        #: no delivery that no host can see).
        self.receive = receive
        #: Real adapters do not pass MAC frames to the host (Section 4: the
        #: adapter ROM software "does not allow for passing MAC frames to
        #: the host processor"); set True only for hypothetical-mode studies.
        self.accept_mac_frames = accept_mac_frames
        self.position = ring.attach(self)

    @property
    def stats_mac_frames_seen(self) -> int:
        """MAC frames that have reached this adapter as of ``sim.now``.

        The adapter sees every MAC frame on the ring, whether or not it
        passes them to the host; a frame counts once its delivery here has
        fallen due, unless a Ring Purge destroyed it in flight.  Counted
        lazily by :meth:`TokenRing.mac_frames_seen`, not by a delivery.
        """
        return self.ring.mac_frames_seen(self)

    def transmit(
        self,
        frame: Frame,
        on_complete: Optional[Callable[[Frame, str], None]] = None,
    ) -> None:
        """Queue a frame for the token."""
        self.ring.request_transmit(self, frame, on_complete)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RingStation {self.address} pos={self.position}>"
