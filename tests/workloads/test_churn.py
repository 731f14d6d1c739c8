"""Tests for the churn workload and its control-plane driver."""

from repro.core.control import SessionControlPlane
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC
from repro.workloads.churn import (
    HOLD_FOREVER,
    ChurnDriver,
    ChurnSchedule,
    SessionRequest,
)


def test_sorted_requests_order_by_time_then_client():
    schedule = ChurnSchedule()
    schedule.add(at_ns=200, client="b")
    schedule.add(at_ns=100, client="z")
    schedule.add(at_ns=200, client="a")
    assert [(r.at_ns, r.client) for r in schedule.sorted_requests()] == [
        (100, "z"), (200, "a"), (200, "b")
    ]


def test_stable_hash_is_content_addressed():
    one = ChurnSchedule()
    one.add(at_ns=100, client="a", duration_ns=SEC)
    two = ChurnSchedule()
    two.add(at_ns=100, client="a", duration_ns=SEC)
    assert one.stable_hash() == two.stable_hash()
    two.add(at_ns=200, client="b")
    assert one.stable_hash() != two.stable_hash()


def test_hold_forever_is_a_sentinel():
    r = SessionRequest(at_ns=0, client="a")
    assert r.duration_ns == HOLD_FOREVER == -1


def _bed_and_plane():
    # One slot per station: a single server station cannot source two
    # 167 KB/s streams inside the 12 ms CTMSP period.
    bed = _Testbed(seed=1)
    for name in ("server-a", "server-b"):
        bed.add_host(HostConfig(name=name, vca_slots=1))
    for name in ("c1", "c2"):
        bed.add_host(HostConfig(name=name))
    plane = SessionControlPlane(bed)
    for name in ("server-a", "server-b"):
        plane.register_server(name, slots=1)
    return bed, plane


def test_driver_submits_and_departs_on_schedule():
    bed, plane = _bed_and_plane()
    plane.start()
    schedule = ChurnSchedule()
    schedule.add(at_ns=100 * MS, client="c1", duration_ns=SEC)
    schedule.add(at_ns=200 * MS, client="c2", duration_ns=HOLD_FOREVER)
    driver = ChurnDriver(bed, plane, schedule).arm()
    bed.run(2 * SEC)
    states = {ms.client: ms.state for ms in plane.sessions}
    # c1 held one second then departed; c2 holds forever.
    assert states["c1"] == "closed"
    assert states["c2"] == "streaming"
    assert plane.snapshot()["admitted"] == 2


def test_driver_departure_frees_capacity_for_queued_arrival():
    bed = _Testbed(seed=1)
    bed.add_host(HostConfig(name="server-a", vca_slots=1))
    for name in ("c1", "c2"):
        bed.add_host(HostConfig(name=name))
    plane = SessionControlPlane(bed)
    plane.register_server("server-a", slots=1)
    plane.start()
    schedule = ChurnSchedule()
    schedule.add(at_ns=100 * MS, client="c1", duration_ns=SEC)
    schedule.add(at_ns=200 * MS, client="c2", duration_ns=HOLD_FOREVER)
    ChurnDriver(bed, plane, schedule).arm()
    bed.run(3 * SEC)
    states = {ms.client: ms.state for ms in plane.sessions}
    assert states["c1"] == "closed"
    # c2 queued on the single slot, then inherited it at c1's departure.
    assert states["c2"] == "streaming"
    decisions = {ms.client: ms.decision for ms in plane.sessions}
    assert decisions["c2"] == "queue"
