"""Tests for the Section 5.2.1 campaign controller (halt on anomaly)."""

from repro.core.session import CTMSSession
from repro.experiments.controller import (
    LONG_INTERVAL,
    LOST_PACKET,
    CampaignController,
)
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC


def build(halt=True, max_interarrival=40 * MS, seed=15):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    controller = CampaignController(
        bed, tx, rx, session,
        max_interarrival=max_interarrival,
        halt_on_anomaly=halt,
    )
    return bed, tx, rx, session, controller


def test_clean_run_never_trips():
    bed, tx, rx, session, controller = build()
    bed.run(5 * SEC)
    assert controller.snapshot is None
    assert not controller.halted
    assert session.stats.delivered > 400


def test_lost_packet_halts_and_snapshots():
    bed, tx, rx, session, controller = build()
    bed.run(500 * MS)
    # Purge the ring mid-flight to destroy one CTMSP packet (the wire
    # window for each 12ms period is ~6-10ms in; sweep the phase).
    for k in range(3):
        bed.sim.schedule(11 * MS + k * 12 * MS, bed.ring.purge)
    bed.run(2 * SEC)
    assert controller.halted
    snap = controller.snapshot
    assert snap is not None
    # The purge produces either a lost packet (gap at rx) or a long
    # inter-arrival stall; both are the paper's halt triggers.
    assert snap.anomaly in (LOST_PACKET, LONG_INTERVAL)
    # The stream was halted: deliveries stop shortly after.
    delivered = session.stats.delivered
    bed.run(1 * SEC)
    assert session.stats.delivered <= delivered + 2


def test_snapshot_carries_the_debugging_context():
    bed, tx, rx, session, controller = build()
    bed.run(500 * MS)
    for k in range(3):
        bed.sim.schedule(11 * MS + k * 12 * MS, bed.ring.purge)
    bed.run(2 * SEC)
    snap = controller.snapshot
    assert snap is not None
    assert snap.recent_events  # the rolling window was captured
    assert {"tx", "rx"} <= {e.point for e in snap.recent_events}
    assert snap.ring_stats["purges"] >= 1
    assert snap.transmitter_stats["tx_packets"] > 0
    text = snap.render()
    assert "SNAPSHOT" in text
    assert "recent events" in text


def test_monitoring_mode_records_without_halting():
    bed, tx, rx, session, controller = build(halt=False)
    bed.run(500 * MS)
    for k in range(3):
        bed.sim.schedule(11 * MS + k * 12 * MS, bed.ring.purge)
    bed.run(3 * SEC)
    assert controller.snapshot is not None
    assert not controller.halted
    # Stream kept going.
    assert session.stats.delivered > 200


def test_long_interval_threshold_trips_on_outage():
    bed, tx, rx, session, controller = build(max_interarrival=30 * MS)
    bed.run(500 * MS)
    # A 10-purge burst: ~100ms of dead ring.
    for i in range(10):
        bed.sim.schedule(i * 10 * MS, bed.ring.purge)
    bed.run(2 * SEC)
    snap = controller.snapshot
    assert snap is not None
    assert snap.anomaly in (LONG_INTERVAL, LOST_PACKET)


def test_event_window_is_bounded():
    bed, tx, rx, session, controller = build()
    bed.run(10 * SEC)
    assert len(controller.events) <= 64
