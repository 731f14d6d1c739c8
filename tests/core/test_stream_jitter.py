"""Tests for the jitter and worst-gap stream metrics."""

import statistics

from repro.core.ctmsp import CTMSP_HEADER_BYTES, CTMSPPacket
from repro.core.stream import StreamStats
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.sim.units import MS, SEC


def deliveries_at(times):
    stats = StreamStats()
    for i, t in enumerate(times):
        pkt = CTMSPPacket(1, i, 7, 2000 - CTMSP_HEADER_BYTES)
        pkt.born_at = t - 11 * MS
        stats.record_delivery(pkt, t)
    return stats


def test_perfect_stream_has_zero_jitter():
    stats = deliveries_at([i * 12 * MS for i in range(50)])
    assert set(stats.inter_arrival_ns()) == {12 * MS}
    assert stats.worst_gap_ns() == 12 * MS


def test_worst_gap_finds_the_stall():
    times = [i * 12 * MS for i in range(10)]
    times += [times[-1] + 130 * MS + i * 12 * MS for i in range(10)]
    stats = deliveries_at(times)
    assert stats.worst_gap_ns() == 130 * MS


def test_empty_and_single_delivery():
    assert StreamStats().inter_arrival_ns() == []
    assert StreamStats().worst_gap_ns() == 0
    one = deliveries_at([5 * MS])
    assert one.inter_arrival_ns() == []
    assert one.worst_gap_ns() == 0


def test_loaded_ring_has_more_jitter_than_quiet():
    quiet = run_scenario(scenario_a(duration_ns=8 * SEC, seed=2))
    loaded = run_scenario(scenario_b(duration_ns=8 * SEC, seed=2))
    # Jitter: the standard deviation of the inter-arrival gaps.
    loaded_jitter = statistics.stdev(loaded.stream.inter_arrival_ns())
    assert loaded_jitter > 2 * statistics.stdev(quiet.stream.inter_arrival_ns())


def test_soft_errors_flow_through_the_scenario():
    scenario = scenario_a(duration_ns=6 * SEC, seed=2)
    scenario = scenario.variant("soft", soft_errors_per_hour=3600.0)  # 1/s
    result = run_scenario(scenario)
    assert result.testbed.monitor.stats_soft_errors >= 2
    # Soft errors purge the ring; some packets may be lost, and each loss
    # is a single-packet gap the sink rides through.
    tracker = result.tracker
    assert tracker.gaps == tracker.lost_packets
    assert result.stream.worst_gap_ns() >= 12 * MS
