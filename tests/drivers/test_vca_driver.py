"""Unit tests for the VCA driver: ioctls, source, sink, stock modes."""

import pytest

from repro.core.ctmsp import CTMSPPacket
from repro.core.session import CTMSSession
from repro.drivers.vca import VCADriverConfig
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.hardware import calibration
from repro.hardware.memory import Region
from repro.sim.units import MS, SEC, US
from repro.unix.process import UserProcess


def build_session(tx_vca=None, rx_vca=None, seed=3):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx", vca=tx_vca or VCADriverConfig()))
    rx = bed.add_host(HostConfig(name="rx", vca=rx_vca or VCADriverConfig()))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    return bed, tx, rx, session


def test_bind_computes_header_once_for_connection_lifetime():
    bed, tx, rx, session = build_session()
    bed.run(2 * SEC)
    assert tx.vca_driver.header is not None
    assert tx.vca_driver.header.src == "tx"
    assert tx.vca_driver.header.dst == "rx"
    # Every packet reuses the same frozen header object.
    assert session.stats.delivered > 100


def test_source_numbers_packets_sequentially():
    bed, tx, rx, session = build_session()
    bed.run(1 * SEC)
    built = tx.vca_driver.stats_packets_built
    assert built == tx.vca_adapter.stats_interrupts
    tracker = session.sink_tracker
    assert tracker.packets_ok == session.stats.delivered


def test_source_without_bind_raises():
    bed = _Testbed(seed=1, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    bed.add_host(HostConfig(name="anchor"))

    def start_only(proc):
        yield from proc.ioctl("vca0", "CTMS_START")

    UserProcess(tx.kernel, "bad-setup").start(start_only)
    with pytest.raises(RuntimeError):
        bed.run(50 * MS)


def test_unknown_ioctl_rejected():
    bed = _Testbed(seed=1, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    bed.add_host(HostConfig(name="anchor"))
    failures = []

    def body(proc):
        try:
            yield from proc.ioctl("vca0", "NOT_AN_IOCTL")
        except ValueError as exc:
            failures.append(str(exc))

    UserProcess(tx.kernel, "prober").start(body)
    bed.run(50 * MS)
    assert failures and "NOT_AN_IOCTL" in failures[0]


def test_sink_copy_to_device_pays_pio():
    bed, tx, rx, session = build_session(
        rx_vca=VCADriverConfig(sink_copy_to_device=True)
    )
    bed.run(1 * SEC)
    rec = rx.kernel.ledger.cpu.get((Region.SYSTEM, Region.ADAPTER))
    assert rec is not None
    assert rec.copies == session.stats.delivered


def test_sink_drop_mode_pays_no_device_copy():
    bed, tx, rx, session = build_session(
        rx_vca=VCADriverConfig(sink_copy_to_device=False)
    )
    bed.run(1 * SEC)
    assert (Region.SYSTEM, Region.ADAPTER) not in rx.kernel.ledger.cpu


def test_duplicate_packets_ignored_by_sink():
    bed, tx, rx, session = build_session()
    bed.run(500 * MS)
    pkt = CTMSPPacket(1, 0, 7, 100)

    def deliver_dup():
        gen = rx.vca_driver.ctms_deliver(
            pkt.to_frame() if pkt.header else _fake_frame(pkt), Region.SYSTEM, None
        )
        yield from gen

    def _fake_frame(p):
        from repro.ring.frames import Frame

        return Frame(src="tx", dst="rx", info_bytes=100, protocol="ctmsp", payload=p)

    rx.machine.cpu.spawn_base(deliver_dup())
    bed.run(10 * MS)
    assert rx.vca_driver.stream_stats.duplicates >= 1


def test_mbuf_exhaustion_drops_period():
    bed, tx, rx, session = build_session()
    bed.run(100 * MS)
    hold = []
    while True:
        try:
            hold.append(tx.kernel.mbufs.try_alloc(is_cluster=True))
        except Exception:
            break
    bed.run(50 * MS)
    assert tx.vca_driver.stats_drops_no_mbufs >= 1
    for m in hold:
        m.free()
    # Stream recovers once buffers return.
    before = session.stats.delivered
    bed.run(200 * MS)
    assert session.stats.delivered > before


def test_custom_packet_size_streams():
    cfg = VCADriverConfig(packet_bytes=1000, device_bytes_per_period=984)
    bed, tx, rx, session = build_session(tx_vca=cfg)
    bed.run(1 * SEC)
    assert session.stats.delivered > 50
    # 1000-byte information field per packet.
    per_packet = session.stats.bytes_delivered / session.stats.delivered
    assert per_packet == 1000


def test_direct_to_buffer_source_mode():
    cfg = VCADriverConfig(source_direct_to_buffer=True)
    bed, tx, rx, session = build_session(tx_vca=cfg)
    bed.run(1 * SEC)
    assert session.stats.delivered > 50
    # The staging copy goes device -> IO Channel Memory, and the driver
    # performs no mbuf-to-buffer copy.
    assert (Region.ADAPTER, Region.IO_CHANNEL) in tx.kernel.ledger.cpu
    assert (Region.SYSTEM, Region.IO_CHANNEL) not in tx.kernel.ledger.cpu


def test_per_packet_header_recompute_costs_time():
    quick = build_session(tx_vca=VCADriverConfig(precomputed_header=True))
    slow = build_session(tx_vca=VCADriverConfig(precomputed_header=False))
    for bed, *_ in (quick, slow):
        bed.run(2 * SEC)
    fast_lat = quick[3].stats.min_latency_ns()
    slow_lat = slow[3].stats.min_latency_ns()
    assert slow_lat >= fast_lat + calibration.TR_HEADER_COMPUTE_COST - 20 * US


def test_stock_mode_read_blocks_until_interrupt():
    bed = _Testbed(seed=4, mac_utilization=0.0)
    cfg = VCADriverConfig(packet_bytes=500, device_bytes_per_period=500)
    host = bed.add_host(HostConfig(name="solo", vca=cfg))
    bed.add_host(HostConfig(name="anchor"))
    reads = []

    def reader(proc):
        yield from proc.ioctl("vca0", "STOCK_START")
        for _ in range(3):
            got = yield from proc.read("vca0", 500)
            reads.append((bed.sim.now, got))

    UserProcess(host.kernel, "reader").start(reader)
    bed.run(100 * MS)
    assert len(reads) == 3
    assert reads[0][0] >= 12 * MS  # first data appears at the first tick
    assert all(n == 500 for _t, n in reads)


def test_stock_mode_overrun_when_reader_is_slow():
    bed = _Testbed(seed=4, mac_utilization=0.0)
    cfg = VCADriverConfig(packet_bytes=2000, device_bytes_per_period=2000)
    host = bed.add_host(HostConfig(name="solo", vca=cfg))
    bed.add_host(HostConfig(name="anchor"))

    def sleepy_reader(proc):
        yield from proc.ioctl("vca0", "STOCK_START")
        while True:
            yield from proc.sleep_ns(100 * MS)  # far too slow
            yield from proc.read("vca0", 2000)

    UserProcess(host.kernel, "reader").start(sleepy_reader)
    bed.run(1 * SEC)
    # FIFO depth is 2 (4KB card / 2000B buffers): overruns accumulate.
    assert host.vca_driver.stats_stock_overruns > 50


def test_stock_write_copies_to_device():
    bed = _Testbed(seed=4, mac_utilization=0.0)
    host = bed.add_host(HostConfig(name="solo"))
    bed.add_host(HostConfig(name="anchor"))
    done = []

    def writer(proc):
        n = yield from proc.write("vca0", 1000)
        done.append(n)

    UserProcess(host.kernel, "writer").start(writer)
    bed.run(50 * MS)
    assert done == [1000]
    assert (Region.SYSTEM, Region.ADAPTER) in host.kernel.ledger.cpu
    assert (Region.USER, Region.SYSTEM) in host.kernel.ledger.cpu
