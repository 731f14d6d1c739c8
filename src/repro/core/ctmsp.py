"""The CTMS Protocol (CTMSP).

Section 3: "We propose that a new protocol be created, CTMS Protocol
(CTMSP), and added to the same layer as ARP and IP.  This protocol is
specifically designed for and limited to the assist of data transfers
between the network and other devices.  The protocol assumes a static
point-to-point connection between two machines."

The packet format the paper's prototype uses (Section 5.1): a precomputed
Token Ring header, a destination device number, and a packet number,
followed by data to a total information field of 2000 bytes.

CTMSP deliberately has *no* acknowledgements, retransmissions or dynamic
routing: on a single ring the transmitter's hardware already knows whether
the frame was copied, the route never changes, and the only loss source is
a Ring Purge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.ring.frames import Frame

#: CTMSP's own header inside the information field: destination device
#: number (2 bytes), packet number (4), stream id (2), plus the copy of the
#: precomputed Token Ring routing header the driver prepends (8).
CTMSP_HEADER_BYTES = 16

#: Token Ring media priority for CTMSP frames: "CTMSP uses a Token Ring
#: priority above any other traffic on our Token Ring."  Ordinary traffic
#: rides at 0; 802.5 reserves 7 for ring management, so the prototype uses 4.
CTMSP_RING_PRIORITY = 4


@dataclass(frozen=True, slots=True)
class PrecomputedHeader:
    """A Token Ring header computed once for the life of the connection.

    Section 3: "Splitting out the function that computes the Token Ring
    header.  This allows for precomputing the header once for the life of
    the connection."
    """

    src: str
    dst: str


@dataclass(slots=True)
class CTMSPPacket:
    """One CTMSP packet as the drivers see it."""

    stream_id: int
    packet_no: int
    dst_device: int
    data_bytes: int
    header: Optional[PrecomputedHeader] = None
    #: Timestamp of the source interrupt that produced this packet (set by
    #: the source driver; used by delivery statistics, not by the wire).
    born_at: int = 0
    #: Opaque observability context riding along the data path (set by
    #: ``repro.obs`` instrumentation when tracing; never read by the model).
    trace_ctx: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.data_bytes < 0:
            raise ValueError("negative payload")
        if self.packet_no < 0:
            raise ValueError("negative packet number")

    @property
    def info_bytes(self) -> int:
        """Total information-field length (header + data)."""
        return CTMSP_HEADER_BYTES + self.data_bytes

    @property
    def wire_packet_number(self) -> int:
        """The low 7 bits written to the measurement parallel port.

        Section 5.2.3: "the last 7 bits of the packet number were written to
        the parallel port".
        """
        return self.packet_no & 0x7F

    def to_frame(self, ring_priority: int = CTMSP_RING_PRIORITY) -> Frame:
        """Build the ring frame for this packet.

        Requires a bound (precomputed) header -- CTMSP never computes
        routing per packet.
        """
        if self.header is None:
            raise ValueError("CTMSP packet has no precomputed header bound")
        return Frame(
            src=self.header.src,
            dst=self.header.dst,
            info_bytes=self.info_bytes,
            priority=ring_priority,
            protocol="ctmsp",
            payload=self,
        )
