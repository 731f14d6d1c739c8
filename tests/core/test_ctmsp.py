"""Tests for the CTMSP packet format."""

import pytest

from repro.core.ctmsp import (
    CTMSP_HEADER_BYTES,
    CTMSP_RING_PRIORITY,
    CTMSPPacket,
    PrecomputedHeader,
)
from repro.hardware.calibration import CTMSP_PACKET_BYTES

#: Filler that makes the paper's standard 2000-byte packet.
STANDARD_DATA_BYTES = CTMSP_PACKET_BYTES - CTMSP_HEADER_BYTES


def header():
    return PrecomputedHeader(src="tx", dst="rx")


def test_standard_packet_is_2000_bytes_total():
    pkt = CTMSPPacket(1, 0, 7, STANDARD_DATA_BYTES, header=header())
    assert pkt.info_bytes == 2000
    assert pkt.data_bytes == 2000 - CTMSP_HEADER_BYTES


def test_to_frame_uses_precomputed_header_and_priority():
    pkt = CTMSPPacket(1, 5, 7, STANDARD_DATA_BYTES, header=header())
    frame = pkt.to_frame()
    assert frame.src == "tx" and frame.dst == "rx"
    assert frame.priority == CTMSP_RING_PRIORITY
    assert frame.protocol == "ctmsp"
    assert frame.payload is pkt
    assert frame.info_bytes == 2000


def test_to_frame_without_header_is_an_error():
    pkt = CTMSPPacket(stream_id=1, packet_no=0, dst_device=7, data_bytes=100)
    with pytest.raises(ValueError):
        pkt.to_frame()


def test_wire_packet_number_is_low_7_bits():
    pkt = CTMSPPacket(1, 0x1FF, 7, 100, header=header())
    assert pkt.wire_packet_number == 0x7F
    assert CTMSPPacket(1, 130, 7, 100).wire_packet_number == 2


def test_validation():
    with pytest.raises(ValueError):
        CTMSPPacket(1, -1, 7, 100)
    with pytest.raises(ValueError):
        CTMSPPacket(1, 0, 7, -5)


def test_ring_priority_override():
    pkt = CTMSPPacket(1, 0, 7, STANDARD_DATA_BYTES, header=header())
    assert pkt.to_frame(ring_priority=0).priority == 0
