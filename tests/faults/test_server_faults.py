"""Tests for the media-server fault kinds: crash and stall."""

import pytest

from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.units import MS, SEC


def streaming_bed(seed=11):
    bed = _Testbed(seed=seed)
    tx = bed.add_host(HostConfig(name="server"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    return bed, tx, rx, session


def test_server_crash_stops_delivery_permanently():
    bed, tx, _rx, session = streaming_bed()
    FaultInjector(bed, FaultPlan().server_crash(1 * SEC, host="server")).arm()
    bed.run(4 * SEC)
    assert tx.crashed
    # Every arrival predates the crash; the sink never hears from the
    # server again.
    assert session.stats.last_arrival < 1 * SEC + 50 * MS
    delivered_at_crash = session.sink_tracker.delivered
    bed.run(SEC)
    assert session.sink_tracker.delivered == delivered_at_crash


def test_server_stall_pauses_then_resumes():
    bed, tx, _rx, session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().server_stall(1 * SEC, duration_ns=500 * MS, host="server"),
    ).arm()
    bed.run(3 * SEC)
    assert not getattr(tx, "crashed", False)
    # The stream went silent for the stall window but came back: arrivals
    # exist on both sides of it, and nothing was lost (the source paused,
    # it did not drop).
    arrivals = session.stats.arrival_times
    assert any(t < 1 * SEC for t in arrivals)
    assert any(t > 2 * SEC for t in arrivals)
    assert not any(1100 * MS < t < 1500 * MS for t in arrivals)
    assert session.sink_tracker.lost_packets == 0


def test_stall_resumes_on_a_rebased_grid_without_a_burst():
    bed, _tx, _rx, session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().server_stall(1 * SEC, duration_ns=500 * MS, host="server"),
    ).arm()
    bed.run(3 * SEC)
    arrivals = [t for t in session.stats.arrival_times if t > 1500 * MS]
    # No catch-up burst: post-resume inter-arrivals stay near the 12 ms
    # period rather than collapsing to back-to-back packets.
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert gaps and min(gaps) > 6 * MS


def test_crash_during_stall_wins():
    bed, tx, _rx, session = streaming_bed()
    plan = FaultPlan()
    plan.server_stall(1 * SEC, duration_ns=SEC, host="server")
    plan.server_crash(1500 * MS, host="server")
    FaultInjector(bed, plan).arm()
    bed.run(4 * SEC)
    assert tx.crashed
    # The stall's scheduled resume must not restart a dead server.
    assert session.stats.last_arrival < 1 * SEC + 50 * MS


def test_server_kinds_require_a_host():
    for kind in ("server_crash", "server_stall"):
        event = FaultEvent(at_ns=0, kind=kind, params={"duration_ns": SEC})
        with pytest.raises(ValueError, match="host"):
            event.validate()


def test_unknown_host_is_ignored_not_fatal():
    bed, _tx, _rx, session = streaming_bed()
    FaultInjector(
        bed, FaultPlan().server_crash(1 * SEC, host="no-such-host")
    ).arm()
    bed.run(2 * SEC)
    assert session.sink_tracker.lost_packets == 0
    assert session.stats.last_arrival > 1 * SEC
