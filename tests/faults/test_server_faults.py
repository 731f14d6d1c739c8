"""Tests for the media-server fault kind: a fail-stop crash."""

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


def test_server_kinds_require_a_host():
    event = FaultEvent(at_ns=0, kind="server_crash")
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
