"""Tests for Token Ring frame formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware import calibration
from repro.ring.frames import (
    BROADCAST,
    Frame,
    FrameClass,
    mac_frame,
    ring_purge_frame,
)
from repro.sim.units import US


def test_wire_time_of_2000_byte_packet_is_about_4ms():
    # 2000 info bytes + 21 framing bytes at 2 us/byte = 4042 us.
    assert Frame(src="a", dst="b", info_bytes=2000).wire_time_ns == 4042 * US


def test_wire_time_of_paper_file_transfer_packet():
    # "These packets are 1522 bytes in total length" -- total on the wire.
    frame = Frame(src="a", dst="b", info_bytes=1522 - calibration.FRAME_OVERHEAD_BYTES)
    assert frame.wire_bytes == 1522
    assert frame.wire_time_ns == 1522 * 8 * 250


def test_mac_frame_is_about_20_bytes_and_broadcast():
    frame = mac_frame("monitor")
    assert frame.wire_bytes == 20  # "on the order of 20 bytes" total
    assert frame.dst == BROADCAST
    assert frame.frame_class is FrameClass.MAC
    assert frame.protocol == "mac"


def test_ring_purge_frame_payload():
    assert ring_purge_frame("monitor").payload == "ring_purge"


def test_priority_must_be_three_bits():
    with pytest.raises(ValueError):
        Frame(src="a", dst="b", info_bytes=10, priority=8)
    with pytest.raises(ValueError):
        Frame(src="a", dst="b", info_bytes=10, priority=-1)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        Frame(src="a", dst="b", info_bytes=-1)


def test_frame_control_byte_distinguishes_mac_from_llc():
    assert mac_frame("m").frame_class is FrameClass.MAC
    assert Frame(src="a", dst="b", info_bytes=1).frame_class is FrameClass.LLC


def test_frames_with_equal_fields_are_unequal():
    a = Frame(src="a", dst="b", info_bytes=1)
    assert a != Frame(src="a", dst="b", info_bytes=1)
    assert a == a


@given(st.integers(min_value=0, max_value=Frame.MAX_INFO_BYTES))
def test_wire_time_linear(n):
    assert Frame(src="a", dst="b", info_bytes=n).wire_time_ns == (n + 21) * 2000
