"""SpanRecorder mechanics: lifecycle, queries, determinism invariants."""

import pytest

from repro.obs.span import (
    CATEGORIES,
    PointEvent,
    SpanRecorder,
    packet_key,
)
from repro.sim.engine import Simulator

pytestmark = pytest.mark.obs


def make_recorder():
    sim = Simulator()
    return sim, SpanRecorder(sim)


def test_begin_end_reads_sim_clock():
    sim, rec = make_recorder()
    rec.begin(("k",), "s", "disk", "tx/disk")
    sim.schedule(100, lambda: rec.end(("k",)))
    sim.run()
    (span,) = rec.spans
    assert (span.start_ns, span.end_ns, span.duration_ns) == (0, 100, 100)
    assert rec.open_count == 0


def test_end_unknown_key_is_ignored():
    _sim, rec = make_recorder()
    assert rec.end(("missing",)) is None
    assert rec.spans == []


def test_rebegin_replaces_and_counts_drop():
    _sim, rec = make_recorder()
    rec.begin(("k",), "first", "disk", "t")
    rec.begin(("k",), "second", "disk", "t")
    assert rec.stats_dropped_open == 1
    rec.end(("k",))
    assert [s.name for s in rec.spans] == ["second"]


def test_add_span_rejects_negative_duration():
    _sim, rec = make_recorder()
    with pytest.raises(ValueError):
        rec.add_span("s", "ring", "t", 100, 50)


def test_disabled_recorder_records_nothing():
    _sim, rec = make_recorder()
    rec.enabled = False
    rec.begin(("k",), "s", "disk", "t")
    rec.add_span("s", "ring", "t", 0, 1)
    rec.instant("i", "ring", "t")
    rec.point("p2", 1)
    assert rec.end(("k",)) is None
    assert (rec.spans, rec.instants, rec.points) == ([], [], [])


def test_point_records_point_event():
    sim, rec = make_recorder()
    sim.schedule(5, lambda: rec.point("p3", 42))
    sim.run()
    assert rec.points == [PointEvent("p3", 42, 5)]


def test_packet_waterfalls_group_and_sort():
    _sim, rec = make_recorder()
    rec.add_span("b", "ring", "t", 10, 20, stream_id=1, packet_no=0)
    rec.add_span("a", "disk", "t", 0, 5, stream_id=1, packet_no=0)
    rec.add_span("c", "disk", "t", 0, 9, stream_id=1, packet_no=1)
    rec.add_span("untagged", "disk", "t", 0, 1)
    falls = rec.packet_waterfalls()
    assert set(falls) == {(1, 0), (1, 1)}
    assert [s.name for s in falls[(1, 0)]] == ["a", "b"]


def test_worst_packet_spans_widest_interval():
    _sim, rec = make_recorder()
    rec.add_span("a", "disk", "t", 0, 5, stream_id=1, packet_no=0)
    rec.add_span("b", "ring", "t", 0, 50, stream_id=1, packet_no=1)
    key, group = rec.worst_packet()
    assert key == (1, 1)
    assert [s.name for s in group] == ["b"]


def test_categories_sorted_and_complete():
    _sim, rec = make_recorder()
    for i, cat in enumerate(CATEGORIES):
        rec.add_span("s", cat, "t", i, i + 1)
    assert rec.categories() == sorted(CATEGORIES)


def test_packet_key_is_stable():
    assert packet_key(1, 2, "ring") == ("pkt", 1, 2, "ring")
