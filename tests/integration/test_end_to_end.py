"""End-to-end CTMS streaming across the assembled testbed."""

import pytest

from repro.core.session import CTMSSession
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC, US


def build_quiet_session(duration=3 * SEC, seed=3):
    scenario = scenario_a(seed=seed)
    bed = _Testbed(
        seed=seed,
        mac_utilization=scenario.mac_utilization,
        insertions_per_day=0.0,
    )
    tx_tr, tx_vca = scenario.transmitter_config()
    rx_tr, rx_vca = scenario.receiver_config()
    tx = bed.add_host(HostConfig(name="transmitter", tr=tx_tr, vca=tx_vca))
    rx = bed.add_host(HostConfig(name="receiver", tr=rx_tr, vca=rx_vca))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(duration)
    return bed, tx, rx, session


def test_stream_delivers_at_83_packets_per_second():
    bed, tx, rx, session = build_quiet_session()
    stats = session.stats
    # 3 seconds at one packet per 12 ms, minus setup slack.
    assert 240 <= stats.delivered <= 250
    assert stats.throughput_bytes_per_sec() == pytest.approx(166_000, rel=0.02)


def test_stream_is_in_order_and_lossless_on_quiet_ring():
    bed, tx, rx, session = build_quiet_session()
    tracker = session.sink_tracker
    assert tracker.lost_packets == 0
    assert tracker.duplicates == 0
    assert tracker.reordered == 0
    assert tracker.gaps == 0


def test_latency_matches_figure_5_3_band():
    """Source interrupt to sink classification: ~10.7-11ms minimum."""
    bed, tx, rx, session = build_quiet_session()
    stats = session.stats
    min_lat = stats.min_latency_ns()
    # The paper's histogram 7 floor is 10740us point-3-to-point-4; our
    # latency metric starts at the VCA interrupt (point 1), adding the
    # ~2.6ms transmitter path, so expect roughly 13-14ms.
    assert 12 * MS <= min_lat <= 16 * MS
    # Tight distribution on the quiet ring.
    assert stats.max_latency_ns() - min_lat < 3 * MS


def test_inter_arrival_tracks_the_12ms_source():
    bed, tx, rx, session = build_quiet_session()
    gaps = session.stats.inter_arrival_ns()
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(12 * MS, rel=0.01)


def test_no_mbuf_leak_after_streaming():
    bed, tx, rx, session = build_quiet_session()
    session.stop()
    bed.run(1 * SEC)  # drain
    assert tx.kernel.mbufs.bytes_in_use() == 0
    assert rx.kernel.mbufs.bytes_in_use() == 0


def test_copy_ledger_shows_direct_path_copy_profile():
    bed, tx, rx, session = build_quiet_session()
    packets = session.stats.delivered
    # Transmitter CPU copies per packet: header stamp + filler append +
    # mbuf->fixed-DMA-buffer = 3 (no kernel<->user copies anywhere).
    cpu_per = tx.kernel.ledger.cpu_copy_count() / packets
    assert 2.5 <= cpu_per <= 3.5
    from repro.hardware.memory import Region

    assert (Region.SYSTEM, Region.USER) not in tx.kernel.ledger.cpu
    assert (Region.USER, Region.SYSTEM) not in tx.kernel.ledger.cpu


def test_session_stop_halts_stream():
    bed, tx, rx, session = build_quiet_session(duration=1 * SEC)
    session.stop()
    delivered = session.stats.delivered
    bed.run(1 * SEC)
    assert session.stats.delivered <= delivered + 2  # in-flight drains only


def test_ring_sees_ctmsp_priority_traffic():
    bed, tx, rx, session = build_quiet_session(duration=1 * SEC)
    ctmsp = bed.ring.stats_by_protocol.get("ctmsp")
    assert ctmsp is not None and ctmsp["frames"] >= 70
    # 2000B info + 21B framing on the wire.
    assert ctmsp["bytes"] == ctmsp["frames"] * 2021
