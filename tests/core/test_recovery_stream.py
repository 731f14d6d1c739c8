"""Tests for sequence tracking and stream statistics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ctmsp import CTMSP_HEADER_BYTES, CTMSPPacket
from repro.core.recovery import DUPLICATE, GAP, OK, REORDERED, SequenceTracker
from repro.core.stream import StreamStats
from repro.sim.units import MS


def test_in_order_stream_is_all_ok():
    tracker = SequenceTracker()
    assert [tracker.record(i) for i in range(5)] == [OK] * 5
    assert tracker.delivered == 5
    assert tracker.lost_packets == 0


def test_stream_may_start_at_any_number():
    tracker = SequenceTracker()
    assert tracker.record(1000) == OK
    assert tracker.record(1001) == OK


def test_single_loss_detected_as_gap():
    tracker = SequenceTracker()
    tracker.record(0)
    assert tracker.record(2) == GAP
    assert tracker.lost_packets == 1
    assert tracker.gaps == 1
    # Stream continues normally afterwards.
    assert tracker.record(3) == OK


def test_duplicate_ignored():
    tracker = SequenceTracker()
    tracker.record(0)
    tracker.record(1)
    assert tracker.record(1) == DUPLICATE
    assert tracker.duplicates == 1
    assert tracker.delivered == 2


def test_late_fill_of_gap_counts_as_reordered():
    tracker = SequenceTracker()
    tracker.record(0)
    tracker.record(2)  # gap: 1 missing
    assert tracker.record(1) == REORDERED
    assert tracker.lost_packets == 0
    assert tracker.reordered == 1


def test_loss_fraction():
    tracker = SequenceTracker()
    tracker.record(0)
    tracker.record(4)  # 3 lost
    assert tracker.loss_fraction() == 3 / 5


@given(st.integers(min_value=1, max_value=300))
def test_gapless_streams_never_report_loss(n):
    tracker = SequenceTracker()
    for i in range(n):
        assert tracker.record(i) == OK
    assert tracker.loss_fraction() == 0.0


@given(st.sets(st.integers(min_value=0, max_value=200), min_size=1))
def test_monotone_subsequence_loss_accounting(present):
    """Delivering any ordered subset: lost = skipped numbers inside range."""
    tracker = SequenceTracker()
    ordered = sorted(present)
    for n in ordered:
        tracker.record(n)
    expected_lost = (ordered[-1] - ordered[0] + 1) - len(ordered)
    assert tracker.lost_packets == expected_lost
    assert tracker.delivered == len(ordered)


def test_stream_stats_latency_and_throughput():
    stats = StreamStats()
    for i in range(3):
        pkt = CTMSPPacket(1, i, 7, 2000 - CTMSP_HEADER_BYTES)
        pkt.born_at = i * 12 * MS
        stats.record_delivery(pkt, i * 12 * MS + 11 * MS)
    assert stats.delivered == 3
    assert stats.max_latency_ns() == 11 * MS
    assert stats.inter_arrival_ns() == [12 * MS, 12 * MS]
    # 2 packets * 2000B over 24ms window after the first arrival.
    assert stats.throughput_bytes_per_sec() > 100_000


def test_stream_stats_duplicate_not_counted():
    stats = StreamStats()
    pkt = CTMSPPacket(1, 0, 7, 2000 - CTMSP_HEADER_BYTES)
    stats.record_delivery(pkt, 5 * MS)
    stats.record_delivery(pkt, 6 * MS, outcome="duplicate")
    assert stats.delivered == 1
    assert stats.duplicates == 1


def test_stream_stats_empty():
    stats = StreamStats()
    assert stats.throughput_bytes_per_sec() == 0.0
    assert stats.max_latency_ns() == 0
    assert stats.inter_arrival_ns() == []


def test_missing_always_mirrors_lost_packets():
    """Gap-fill accounting: the missing set and the loss count move together."""
    tracker = SequenceTracker()
    tracker.record(0)
    tracker.record(5)                 # 1-4 missing
    assert tracker.missing() == (1, 2, 3, 4)
    assert tracker.lost_packets == 4
    assert tracker.record(2) == REORDERED
    assert tracker.missing() == (1, 3, 4)
    assert tracker.lost_packets == 3
    # Filling the same hole twice is a duplicate, not a double decrement.
    assert tracker.record(2) == DUPLICATE
    assert tracker.missing() == (1, 3, 4)
    assert tracker.lost_packets == 3


@given(st.permutations(list(range(12))))
def test_any_arrival_order_balances_the_books(order):
    """Every packet delivered exactly once, in any order: no residual loss."""
    tracker = SequenceTracker()
    tracker.record(0)                 # pin the stream start
    for n in order:
        tracker.record(n)
    assert tracker.lost_packets == len(tracker.missing())
    assert tracker.missing() == ()
    assert tracker.lost_packets == 0
    assert tracker.delivered == 12
    assert tracker.loss_fraction() == 0.0


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=120)
)
def test_missing_invariant_under_arbitrary_streams(packet_nos):
    """len(missing()) == lost_packets after every single record call."""
    tracker = SequenceTracker()
    for n in packet_nos:
        tracker.record(n)
        assert len(tracker.missing()) == tracker.lost_packets
        assert all(m < tracker.next_expected for m in tracker.missing())
