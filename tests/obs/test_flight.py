"""Flight recorder: snapshot-on-violation via the duck-typed testbed hook."""

import pytest

from repro.experiments.chaos import build_plan, run_one
from repro.experiments.tracing import run_traced
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecorder
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC

pytestmark = pytest.mark.obs


def test_snapshot_freezes_current_telemetry():
    sim = Simulator()
    rec = SpanRecorder(sim)
    reg = MetricsRegistry()
    fr = FlightRecorder(recorder=rec, metrics=reg, tail=2)
    rec.add_span("a", "ring", "ring/wire", 0, 10)
    rec.add_span("b", "ring", "ring/wire", 10, 20)
    rec.add_span("c", "ring", "ring/wire", 20, 30)
    rec.begin(("open",), "inflight", "disk", "tx/disk")
    reg.counter("pkts").incr(3)
    snap = fr.snapshot("stream-starved", 30, {"detail": "gap"})
    assert fr.snapshots == [snap]
    assert [s.name for s in snap.recent_spans] == ["b", "c"]  # tail=2
    assert [s.name for s in snap.open_spans] == ["inflight"]
    assert snap.metrics["counters"]["pkts"]["value"] == 3
    # Later mutation does not leak into the frozen snapshot.
    reg.counter("pkts").incr(5)
    assert snap.metrics["counters"]["pkts"]["value"] == 3


def test_snapshot_cap_suppresses_extras():
    fr = FlightRecorder(max_snapshots=2)
    assert fr.snapshot("one", 1) is not None
    assert fr.snapshot("two", 2) is not None
    assert fr.snapshot("three", 3) is None
    assert len(fr.snapshots) == 2
    assert fr.stats_suppressed == 1
    assert "suppressed" in fr.render()


def test_render_lists_snapshots():
    fr = FlightRecorder()
    assert "no snapshots" in fr.render()
    fr.snapshot("playout-underrun", 2 * MS, {"glitches": 1})
    text = fr.render()
    assert "playout-underrun" in text and "glitches" in text


def test_chaos_run_snapshots_first_violation():
    """run_one wires the recorder to the invariant monitor's first trip."""
    duration = 4 * SEC
    plan = build_plan(1, 2.0, duration)
    fr = FlightRecorder()
    run = run_one("stock", plan, 1, duration, intensity=2.0, flight_recorder=fr)
    assert bool(fr.snapshots) == bool(run.violations)
    assert len(fr.snapshots) == min(len(run.violations), fr.max_snapshots)
    for snap, violation in zip(fr.snapshots, run.violations):
        assert snap.reason == violation.invariant
        assert snap.at_ns == violation.at_ns
        assert snap.detail["detail"] == violation.detail


def test_chaos_run_results_unchanged_by_flight_recorder():
    duration = 2 * SEC
    plan = build_plan(3, 1.0, duration)
    plain = run_one("ctmsp", plan, 3, duration, intensity=1.0)
    observed = run_one(
        "ctmsp", plan, 3, duration, intensity=1.0,
        flight_recorder=FlightRecorder(),
    )
    assert observed.delivered == plain.delivered
    assert observed.lost_packets == plain.lost_packets
    assert observed.throughput_bytes_per_sec == plain.throughput_bytes_per_sec
    assert observed.violated == plain.violated


def test_run_traced_carries_flight_recorder():
    run = run_traced("ctmsp", seed=7, duration_ns=250 * MS)
    assert run.testbed.flight_recorder is run.flight
    assert run.flight.recorder is run.recorder
