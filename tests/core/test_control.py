"""Tests for the session control plane: ledger, admission, shed, failover.

Policy arithmetic (the CTMSP numbers): one stream's gross wire rate is
2000 bytes per 12 ms VCA period = 166,667 B/s; the 4 Mbit ring budgets
500,000 x 0.85 = 425,000 B/s -- so two streams commit and a third queues.
"""

import pytest

from repro.core.control import (
    BandwidthLedger,
    ControlPlaneConfig,
    FailoverRecord,
    ManagedSession,
    SessionControlPlane,
    first_arrival_after,
    stream_gross_rate_bytes_per_sec,
)
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC


def _bed(servers=("server-a", "server-b"), clients=("c1", "c2", "c3")):
    bed = _Testbed(seed=1)
    for name in servers:
        bed.add_host(HostConfig(name=name, vca_slots=2))
    for name in clients:
        bed.add_host(HostConfig(name=name))
    return bed


def _plane(bed, config=None, slots=1):
    plane = SessionControlPlane(bed, config=config)
    for name in ("server-a", "server-b"):
        plane.register_server(name, slots=slots)
    return plane


# ----------------------------------------------------------------------
# rate arithmetic and the ledger
# ----------------------------------------------------------------------
def test_stream_gross_rate_is_the_ctmsp_wire_rate():
    # 2000 bytes every 12 ms -> 166,667 B/s (rounded).
    assert stream_gross_rate_bytes_per_sec() == 166_667


def test_ring_budget_admits_two_streams_not_three():
    config = ControlPlaneConfig()
    budget = config.ring_budget_bytes_per_sec()
    rate = config.session_rate_bytes_per_sec
    assert budget == 425_000
    assert 2 * rate <= budget < 3 * rate


def test_ledger_commit_release_roundtrip():
    ledger = BandwidthLedger(ring_budget_bytes_per_sec=425_000)
    ledger.add_server("s", ["vca0", "vca1"], budget_bytes_per_sec=400_000)
    slot = ledger.commit("s", 166_667)
    assert slot == "vca0"  # sorted free-slot order
    assert ledger.server_committed("s") == 166_667
    assert ledger.ring_committed_bytes_per_sec == 166_667
    ledger.release("s", slot, 166_667)
    assert ledger.server_committed("s") == 0
    assert ledger.ring_committed_bytes_per_sec == 0
    assert ledger.commit("s", 1) == "vca0"  # slot returned to the pool


def test_ledger_server_room_caps_on_slots_and_budget():
    ledger = BandwidthLedger(ring_budget_bytes_per_sec=10**9)
    ledger.add_server("s", ["vca0"], budget_bytes_per_sec=200_000)
    assert ledger.server_has_room("s", 166_667)
    ledger.commit("s", 166_667)
    # Slot exhausted even though some budget remains.
    assert not ledger.server_has_room("s", 1)


# ----------------------------------------------------------------------
# admission policy
# ----------------------------------------------------------------------
def test_two_admit_third_queues_on_ring_capacity():
    bed = _bed()
    plane = _plane(bed)
    a = plane.submit("c1")
    b = plane.submit("c2")
    c = plane.submit("c3")
    assert (a.decision, b.decision, c.decision) == ("admit", "admit", "queue")
    assert c.decision_reason == "ring segment at committed capacity"
    # Placement spreads: least-committed, ties by name.
    assert a.server == "server-a"
    assert b.server == "server-b"


def test_one_session_per_client_rejected():
    bed = _bed()
    plane = _plane(bed)
    plane.submit("c1")
    dup = plane.submit("c1")
    assert dup.decision == "reject"
    assert "already has a session" in dup.decision_reason


def test_queue_bounded_then_rejects():
    bed = _bed(clients=tuple(f"c{i}" for i in range(1, 8)))
    plane = _plane(
        bed, config=ControlPlaneConfig(max_queue_depth=2)
    )
    decisions = [plane.submit(f"c{i}").decision for i in range(1, 7)]
    assert decisions == ["admit", "admit", "queue", "queue", "reject", "reject"]


def test_departure_pumps_the_queue_fifo():
    bed = _bed()
    plane = _plane(bed).start()
    a = plane.submit("c1")
    plane.submit("c2")
    c = plane.submit("c3")
    assert c.state == "queued"
    bed.run(500 * MS)
    plane.release(a)
    assert c.state == "establishing"
    bed.run(500 * MS)
    assert c.state == "streaming"
    assert c.server == "server-a"  # inherited the freed capacity


def test_established_sessions_stream_and_deliver():
    bed = _bed()
    plane = _plane(bed).start()
    a = plane.submit("c1")
    bed.run(SEC)
    assert a.state == "streaming"
    assert a.sink_tracker.delivered > 50
    assert a.sink_tracker.lost_packets == 0
    plane.stop()


# ----------------------------------------------------------------------
# shedding policy
# ----------------------------------------------------------------------
def test_select_victims_sheds_newest_lowest_priority_first():
    bed = _bed()
    plane = _plane(bed, config=ControlPlaneConfig())
    old = plane.submit("c1", priority=1)
    young = plane.submit("c2", priority=0)
    bed.run(SEC)
    assert old.state == young.state == "streaming"
    victims = plane.select_victims()
    # Lowest priority first; the high-priority elder is protected.
    assert victims == [young]


def test_select_victims_never_sheds_a_lone_stream():
    bed = _bed()
    plane = _plane(bed)
    plane.submit("c1")
    bed.run(SEC)
    assert plane.select_victims() == []


def test_shed_and_watermark_resume_roundtrip():
    bed = _bed()
    config = ControlPlaneConfig(shed_resume_hold_ticks=2)
    plane = _plane(bed, config=config)
    plane.submit("c1")
    young = plane.submit("c2")
    bed.run(SEC)
    # Drive the watermark logic directly (the tick would overwrite the
    # measured utilization with the real one).
    plane.measured_utilization = config.shed_high_watermark + 0.05
    plane._shed_step()
    assert young.state == "shed"
    assert young.server is None
    assert plane.ledger.ring_committed_bytes_per_sec == 166_667
    resume_from = young.sheds  # one shed recorded
    assert resume_from == 1
    # Hysteresis: two ticks below the low watermark resume it.
    plane.measured_utilization = config.shed_low_watermark - 0.1
    plane._shed_step()
    assert young.state == "shed"
    plane._shed_step()
    assert young.state == "establishing"
    bed.run(SEC)
    assert young.state == "streaming"


# ----------------------------------------------------------------------
# failover bookkeeping
# ----------------------------------------------------------------------
class _StubStats:
    def __init__(self, arrivals):
        self.arrival_times = arrivals


class _StubSession:
    def __init__(self, arrivals):
        self.stats = _StubStats(arrivals)


def test_failover_window_closes_from_arrival_evidence():
    ms = ManagedSession(control_id=1, client="c1", priority=0,
                        rate_bytes_per_sec=166_667, submitted_at_ns=0)
    ms.session = _StubSession([100, 200, 900])
    ms.failovers.append(
        FailoverRecord(control_id=1, from_server="server-a",
                       detected_at_ns=400, gap_start_ns=200)
    )
    # resumed_at_ns is unset; the window end derives from the first
    # arrival after detection.
    assert ms.failover_windows() == [(200, 900)]


def test_failover_window_stays_open_without_evidence():
    ms = ManagedSession(control_id=1, client="c1", priority=0,
                        rate_bytes_per_sec=166_667, submitted_at_ns=0)
    ms.session = _StubSession([100, 200])
    ms.failovers.append(
        FailoverRecord(control_id=1, from_server="server-a",
                       detected_at_ns=400, gap_start_ns=200)
    )
    assert ms.failover_windows() == [(200, None)]


def test_finish_stamps_the_same_window_end_the_monitor_saw():
    bed = _bed()
    plane = _plane(bed)
    ms = ManagedSession(control_id=1, client="c1", priority=0,
                        rate_bytes_per_sec=166_667, submitted_at_ns=0)
    ms.session = _StubSession([100, 200, 400, 900, 912])
    ms.failovers += [
        FailoverRecord(control_id=1, from_server="server-a",
                       detected_at_ns=400, gap_start_ns=400),
        FailoverRecord(control_id=1, from_server="server-b",
                       detected_at_ns=950, gap_start_ns=912),
    ]
    live = ms.failover_windows()
    plane._close_failover_windows(ms)
    # An arrival exactly at detection does not close the window.
    assert [r.resumed_at_ns for r in ms.failovers] == [900, None]
    assert ms.failover_windows() == live == [(400, 900), (912, None)]


def test_first_arrival_after_is_strictly_after():
    arrivals = [100, 200, 200, 900]
    assert first_arrival_after(arrivals, 50) == 100
    assert first_arrival_after(arrivals, 200) == 900
    assert first_arrival_after(arrivals, 900) is None
    assert first_arrival_after([], 0) is None


def test_snapshot_counts_decisions():
    bed = _bed()
    plane = _plane(bed)
    plane.submit("c1")
    plane.submit("c2")
    plane.submit("c3")
    snap = plane.snapshot()
    assert snap["admitted"] == 2
    assert snap["queued"] == 1
    assert snap["rejected"] == 0


# ----------------------------------------------------------------------
# the decision trail
# ----------------------------------------------------------------------
#: ``stats_*`` counter -> the trail event each one counts.
COUNTED_EVENTS = {
    "admitted": "admit",
    "queued": "queue",
    "rejected": "reject",
    "shed": "shed",
    "resumed": "resume",
    "failovers": "failover-detected",
    "stranded": "strand",
}


def _check_trail(plane):
    times = [t_ns for t_ns, _event, _fields in plane.decisions]
    assert times == sorted(times)
    events = [event for _t_ns, event, _fields in plane.decisions]
    snap = plane.snapshot()
    for counter, event in COUNTED_EVENTS.items():
        assert snap[counter] == events.count(event), counter
    return events


@pytest.mark.chaos
def test_decision_trail_is_ordered_and_matches_the_counters(monkeypatch):
    from repro.experiments import failover

    planes = []

    class Recorded(SessionControlPlane):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            planes.append(self)

    monkeypatch.setattr(failover, "SessionControlPlane", Recorded)
    failover.run_failover_one("failover", seed=1, duration_ns=3 * SEC)
    (plane,) = planes
    events = _check_trail(plane)
    assert events.count("admit") == 2
    for event in ("server-down", "failover-detected", "failover-attempt"):
        assert events.count(event) == 1, event

    # The shed-and-resume scenario of test_shed_and_watermark_resume_roundtrip.
    bed = _bed()
    config = ControlPlaneConfig(shed_resume_hold_ticks=2)
    plane = _plane(bed, config=config)
    plane.submit("c1")
    plane.submit("c2")
    bed.run(SEC)
    plane.measured_utilization = config.shed_high_watermark + 0.05
    plane._shed_step()
    plane.measured_utilization = config.shed_low_watermark - 0.1
    plane._shed_step()
    plane._shed_step()
    bed.run(SEC)
    events = _check_trail(plane)
    assert [e for e in events if e in COUNTED_EVENTS.values()] == [
        "admit", "admit", "shed", "resume",
    ]
