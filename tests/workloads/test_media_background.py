"""Tests for media source descriptions and background traffic generators."""

import pytest

from repro.core.ctmsp import CTMSP_HEADER_BYTES
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.hardware import calibration
from repro.sim.units import MS, SEC
from repro.workloads.background import BackgroundTraffic, LightweightSender
from repro.workloads.media import (
    CD_AUDIO,
    COMPRESSED_VIDEO,
    TELEPHONE_AUDIO,
    MediaSource,
)


# ---------------------------------------------------------------------------
# media sources
# ---------------------------------------------------------------------------

def test_cd_audio_rate_is_the_papers():
    assert CD_AUDIO.bytes_per_sec == 176_400  # 44.1K x 16bit x 2ch
    assert CD_AUDIO.bytes_per_period == 2117  # per 12ms interrupt


def test_compressed_video_is_150_kb_per_sec():
    assert COMPRESSED_VIDEO.bytes_per_sec == 150_000
    assert COMPRESSED_VIDEO.bytes_per_period == 1800


def test_telephone_audio_is_the_16kb_baseline():
    assert TELEPHONE_AUDIO.bytes_per_sec == 16_000
    assert TELEPHONE_AUDIO.bytes_per_period == 192


def test_packet_bytes_include_ctmsp_header():
    for media in (TELEPHONE_AUDIO, COMPRESSED_VIDEO, CD_AUDIO):
        assert media.packet_bytes == media.bytes_per_period + CTMSP_HEADER_BYTES


def test_vca_config_carries_rate_parameters():
    cfg = CD_AUDIO.vca_config()
    assert cfg.packet_bytes == CD_AUDIO.packet_bytes
    assert cfg.device_bytes_per_period == CD_AUDIO.bytes_per_period
    override = CD_AUDIO.vca_config(sink_copy_to_device=True)
    assert override.sink_copy_to_device


def test_playout_rate_matches_per_period_production():
    # Drain must exactly equal production to avoid drift.
    rate = CD_AUDIO.playout_rate()
    per_second = CD_AUDIO.bytes_per_period * (SEC / calibration.VCA_INTERRUPT_PERIOD)
    assert rate == pytest.approx(per_second)


# ---------------------------------------------------------------------------
# background traffic
# ---------------------------------------------------------------------------

def test_lightweight_sender_hits_target_rate():
    bed = _Testbed(seed=6, mac_utilization=0.0)
    bed.add_host(HostConfig(name="sinkhost"))
    bed.add_host(HostConfig(name="anchor"))
    sender = LightweightSender(
        bed, "src", "sinkhost", info_bytes=200,
        mean_packets_per_sec=40.0, rng=bed.rng,
    )
    sender.start()
    bed.run(20 * SEC)
    rate = sender.stats_sent / 20
    assert rate == pytest.approx(40.0, rel=0.2)


def test_lightweight_sender_stop():
    bed = _Testbed(seed=6, mac_utilization=0.0)
    bed.add_host(HostConfig(name="a"))
    bed.add_host(HostConfig(name="b"))
    sender = LightweightSender(
        bed, "src", "a", info_bytes=100, mean_packets_per_sec=100.0, rng=bed.rng
    )
    sender.start()
    bed.run(1 * SEC)
    count = sender.stats_sent
    sender.stop()
    bed.run(1 * SEC)
    assert sender.stats_sent == count


def test_background_traffic_produces_the_three_size_classes():
    bed = _Testbed(seed=6, mac_utilization=0.003)
    tx = bed.add_host(HostConfig(name="tx", multiprogramming=True))
    rx = bed.add_host(HostConfig(name="rx", multiprogramming=True))
    census = {}
    bed.ring.monitors.append(
        lambda frame, _t_ns, _status: census.setdefault(frame.protocol, []).append(
            frame.wire_bytes
        )
    )
    traffic = BackgroundTraffic(bed, [tx, rx], load=1.0)
    traffic.start()
    bed.run(10 * SEC)
    # MAC frames ~20 bytes.
    assert census.get("mac") and max(census["mac"]) <= 25
    # File transfer / telemetry class at 1522 bytes.
    assert 1522 in census.get("ip", [])
    # Keepalive class 60-300 bytes of payload (plus headers).
    small = [s for s in census.get("ip", []) if 80 <= s <= 360]
    assert small


def test_background_load_zero_is_silent():
    bed = _Testbed(seed=6, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    traffic = BackgroundTraffic(bed, [tx], load=0.0)
    traffic.start()
    bed.run(2 * SEC)
    assert sum(sender.stats_sent for sender in traffic.senders) == 0
    assert traffic.control is None


def test_measured_hosts_answer_keepalives():
    bed = _Testbed(seed=6, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx", multiprogramming=True))
    traffic = BackgroundTraffic(bed, [tx], load=2.0)
    traffic.start()
    bed.run(15 * SEC)
    # The measured host transmits replies: local LLC traffic exists.
    sent_by_tx = bed.ring.stats_by_protocol.get("ip", {"frames": 0})["frames"]
    assert sent_by_tx > 10
    assert tx.tr_driver.stats_tx_packets > 5
