"""Token Ring frame formats.

Only the fields the model acts on are explicit: the token priority, the
Frame Control byte's frame type (MAC vs LLC -- how the paper classifies the
20-byte housekeeping frames), addresses, total length and the information
field.  Payload *contents* travel as an opaque object reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.hardware import calibration

#: Destination address meaning "all stations".
BROADCAST = "*"


class FrameClass(enum.Enum):
    """The Frame Control byte's frame-type field."""

    #: Medium Access Control housekeeping (Ring Purge, Active Monitor
    #: Present, Standby Monitor Present, ...).  Never passed to the host.
    MAC = "mac"
    #: Logical Link Control -- all host data traffic.
    LLC = "llc"


@dataclass(slots=True, eq=False)
class Frame:
    """One frame on the ring.  Two frames are equal only if they are the
    same frame, whatever their fields."""

    src: str
    dst: str
    info_bytes: int
    priority: int = 0
    frame_class: FrameClass = FrameClass.LLC
    #: Which protocol the information field carries ('ctmsp', 'ip', 'arp',
    #: 'mac', ...) -- the dispatch key at the driver's receive split point.
    protocol: str = "ip"
    #: Opaque payload handed to the destination (e.g. a CTMSP packet object).
    payload: Any = None
    #: Bytes of 802.5 framing around the information field.  MAC
    #: housekeeping frames use a minimal header so the whole frame is "on
    #: the order of 20 bytes" as the paper observed.
    framing_bytes: int = calibration.FRAME_OVERHEAD_BYTES
    #: Serialization time at 4 Mbit/s, fixed at construction.  A plain
    #: field rather than a property: the ring reads it several times per
    #: capture, and frames are immutable once built.
    wire_time_ns: int = field(init=False, default=0)

    #: 4 Mbit 802.5 maximum information field (token-holding time bound).
    MAX_INFO_BYTES = 4472

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 7:
            raise ValueError(f"Token Ring priority must be 0..7, got {self.priority}")
        if self.info_bytes < 0:
            raise ValueError("negative information field")
        if self.info_bytes > self.MAX_INFO_BYTES:
            raise ValueError(
                f"information field {self.info_bytes}B exceeds the 4 Mbit "
                f"ring's {self.MAX_INFO_BYTES}B maximum"
            )
        self.wire_time_ns = (
            self.info_bytes + self.framing_bytes
        ) * calibration.TOKEN_RING_NS_PER_BYTE

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including 802.5 framing."""
        return self.info_bytes + self.framing_bytes


#: MAC frames carry a 6-byte major-vector payload inside a 14-byte minimal
#: header, totalling the paper's "on the order of 20 bytes" on the wire.
_MAC_FRAMING_BYTES = 14
_MAC_INFO_BYTES = calibration.MAC_FRAME_BYTES - _MAC_FRAMING_BYTES


def mac_frame(src: str, kind: str = "standby_monitor_present") -> Frame:
    """A ~20-byte MAC housekeeping frame (Section 4's interrupt-cost worry)."""
    return Frame(
        src=src,
        dst=BROADCAST,
        info_bytes=_MAC_INFO_BYTES,
        priority=0,
        frame_class=FrameClass.MAC,
        protocol="mac",
        payload=kind,
        framing_bytes=_MAC_FRAMING_BYTES,
    )


def ring_purge_frame(src: str) -> Frame:
    """The Ring Purge MAC frame the Active Monitor transmits after an error."""
    frame = mac_frame(src, kind="ring_purge")
    return frame
