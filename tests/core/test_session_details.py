"""Detailed tests for CTMS session establishment (the ioctl choreography)."""

from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC


def build(seed=23):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    rx = bed.add_host(HostConfig(name="rx"))
    return bed, tx, rx


def test_established_event_fires_after_both_sides_are_wired():
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    established = session.establish()
    assert not established.triggered
    bed.run(100 * MS)
    assert established.triggered
    # Sink handles were installed before the source started producing.
    assert rx.tr_driver._ctms_sinks
    assert tx.vca_driver.header is not None


def test_source_binds_to_the_sinks_device_number():
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(100 * MS)
    assert tx.vca_driver._dst_device == rx.vca_driver.device_number
    assert tx.vca_driver.header.dst == "rx"
    assert tx.vca_driver.header.src == "tx"


def test_no_packets_leave_before_the_sink_is_ready():
    """The source waits for the sink's handles: zero unclaimed packets."""
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(2 * SEC)
    assert rx.tr_driver.stats_rx_ctmsp_unclaimed == 0
    assert session.stats.delivered > 100


def test_header_computed_exactly_once_per_connection():
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(2 * SEC)
    header_before = tx.vca_driver.header
    bed.run(2 * SEC)
    # Same frozen header object across the whole stream.
    assert tx.vca_driver.header is header_before


def test_stop_and_restart_stream():
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(1 * SEC)
    session.stop()
    delivered = session.stats.delivered
    bed.run(1 * SEC)
    assert session.stats.delivered <= delivered + 2
    # Restart: the DSP timer is re-armed; numbering continues.
    tx.vca_adapter.attach_handler(tx.vca_driver._source_interrupt_handler)
    tx.vca_adapter.start()
    bed.run(1 * SEC)
    assert session.stats.delivered > delivered + 50
    assert session.sink_tracker.duplicates == 0


def test_sessions_are_directional():
    """Establishing tx->rx does not make rx->tx work implicitly."""
    bed, tx, rx = build()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(500 * MS)
    # The transmitter's own driver has no sink registered.
    assert tx.tr_driver._ctms_sinks == []
