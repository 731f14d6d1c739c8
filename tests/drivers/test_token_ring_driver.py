"""Unit tests for the Token Ring driver's transmit/receive disciplines."""

import pytest

from repro.core.ctmsp import PrecomputedHeader, standard_packet
from repro.drivers.token_ring import TokenRingDriverConfig
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.hardware.cpu import Exec
from repro.hardware.memory import Region
from repro.ring.frames import Frame
from repro.sim.units import MS, SEC, US


def build_pair(tx_cfg=None, rx_cfg=None, seed=2):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    tx = bed.add_host(
        HostConfig(name="tx", tr=tx_cfg or TokenRingDriverConfig())
    )
    rx = bed.add_host(
        HostConfig(name="rx", tr=rx_cfg or TokenRingDriverConfig())
    )
    return bed, tx, rx


def make_ctmsp_frame(dst="rx", packet_no=0, priority=4, dst_device=7):
    pkt = standard_packet(
        1, packet_no, dst_device, header=PrecomputedHeader(src="tx", dst=dst)
    )
    return pkt.to_frame(ring_priority=priority)


def send_from_driver(bed, host, chain_bytes, frame):
    """Drive driver.output from a kernel context."""

    def body():
        chain = (
            host.kernel.mbufs.try_alloc_chain(chain_bytes)
            if chain_bytes
            else None
        )
        yield from host.tr_driver.output(chain, frame)

    host.machine.cpu.spawn_base(body())


def test_single_tx_buffer_serializes_transmissions():
    bed, tx, rx = build_pair()
    got = []
    rx.tr_driver.register_ctms_sink(
        lambda f: True,
        lambda f, region, chain: iter(
            [got.append(f.payload.packet_no)] and []
        ),
    )
    for i in range(3):
        send_from_driver(bed, tx, 2000, make_ctmsp_frame(packet_no=i))
    bed.run(100 * MS)
    assert got == [0, 1, 2]
    # One command at a time: never a second transmit while one is active.
    assert tx.tr_adapter.stats_tx_frames == 3


def test_ctmsp_priority_queueing_overtakes_llc():
    bed, tx, rx = build_pair()
    order = []
    rx.tr_driver.register_ctms_sink(
        lambda f: True,
        lambda f, region, chain: iter([order.append("ctmsp")] and []),
    )

    def llc_in(frame, chain):
        order.append(frame.protocol)
        chain.free()
        yield Exec(0)

    rx.tr_driver.llc_input = llc_in
    # Two LLC packets first, then a CTMSP packet while the first is in the
    # buffer: CTMSP must overtake the second LLC packet.
    send_from_driver(bed, tx, 1500, Frame(src="tx", dst="rx", info_bytes=1500, protocol="ip"))
    send_from_driver(bed, tx, 1500, Frame(src="tx", dst="rx", info_bytes=1500, protocol="ip"))

    def later():
        bed.sim.schedule(0, send_from_driver, bed, tx, 2000, make_ctmsp_frame())

    bed.sim.schedule(2 * MS, later)
    bed.run(200 * MS)
    assert order == ["ip", "ctmsp", "ip"]


def test_no_priority_queueing_is_fifo():
    bed, tx, rx = build_pair(
        tx_cfg=TokenRingDriverConfig(ctmsp_priority_queueing=False)
    )
    order = []
    rx.tr_driver.register_ctms_sink(
        lambda f: True,
        lambda f, region, chain: iter([order.append("ctmsp")] and []),
    )

    def llc_in(frame, chain):
        order.append(frame.protocol)
        chain.free()
        yield Exec(0)

    rx.tr_driver.llc_input = llc_in
    send_from_driver(bed, tx, 1500, Frame(src="tx", dst="rx", info_bytes=1500, protocol="ip"))
    send_from_driver(bed, tx, 1500, Frame(src="tx", dst="rx", info_bytes=1500, protocol="ip"))
    bed.sim.schedule(2 * MS, send_from_driver, bed, tx, 2000, make_ctmsp_frame())
    bed.run(200 * MS)
    assert order == ["ip", "ip", "ctmsp"]


def test_probes_fire_at_p3_and_p4():
    bed, tx, rx = build_pair()
    p3_numbers, p4_numbers = [], []
    tx.tr_driver.add_probe(
        "p3", lambda f: p3_numbers.append(f.payload.packet_no) or 2 * US
    )
    rx.tr_driver.add_probe(
        "p4", lambda f: p4_numbers.append(f.payload.packet_no) or 2 * US
    )
    rx.tr_driver.register_ctms_sink(
        lambda f: True, lambda f, region, chain: iter([chain and chain.free()] and [])
    )
    send_from_driver(bed, tx, 2000, make_ctmsp_frame(packet_no=9))
    bed.run(100 * MS)
    assert p3_numbers == [9]
    assert p4_numbers == [9]


def test_unclaimed_ctmsp_is_counted_and_dropped():
    bed, tx, rx = build_pair()
    # No sink registered at all.
    send_from_driver(bed, tx, 2000, make_ctmsp_frame())
    bed.run(100 * MS)
    assert rx.tr_driver.stats_rx_ctmsp_unclaimed == 1
    assert rx.kernel.mbufs.bytes_in_use() == 0


def test_classifier_rejection_drops_before_copy():
    bed, tx, rx = build_pair()
    delivered = []
    rx.tr_driver.register_ctms_sink(
        lambda f: f.payload.dst_device == 99,  # wrong device number
        lambda f, region, chain: iter([delivered.append(1)] and []),
    )
    send_from_driver(bed, tx, 2000, make_ctmsp_frame(dst_device=7))
    bed.run(100 * MS)
    assert delivered == []
    assert rx.tr_driver.stats_rx_ctmsp_unclaimed == 1
    # Rejected before the mbuf copy: nothing was allocated.
    assert rx.kernel.mbufs.stats_allocs == 0


def test_rx_mbuf_exhaustion_drops_packet():
    bed, tx, rx = build_pair()
    rx.tr_driver.register_ctms_sink(
        lambda f: True, lambda f, region, chain: iter([chain.free()] and [])
    )
    # Exhaust the cluster pool.
    hold = [rx.kernel.mbufs.try_alloc(is_cluster=True) for _ in range(64)]
    send_from_driver(bed, tx, 2000, make_ctmsp_frame())
    bed.run(100 * MS)
    assert rx.tr_driver.stats_rx_dropped_no_mbufs == 1
    for m in hold:
        m.free()


def test_rx_in_place_mode_skips_the_copy():
    bed, tx, rx = build_pair(
        rx_cfg=TokenRingDriverConfig(rx_copy_to_mbufs=False)
    )
    seen = []

    def deliver(frame, region, chain):
        seen.append((region, chain))
        yield Exec(0)

    rx.tr_driver.register_ctms_sink(lambda f: True, deliver)
    send_from_driver(bed, tx, 2000, make_ctmsp_frame())
    bed.run(100 * MS)
    assert seen == [(Region.IO_CHANNEL, None)]
    # No rx-side bulk CPU copy was recorded.
    assert (Region.IO_CHANNEL, Region.SYSTEM) not in rx.kernel.ledger.cpu


def test_sysmem_config_places_buffers_in_system_memory():
    bed, tx, rx = build_pair(
        tx_cfg=TokenRingDriverConfig(use_io_channel_memory=False)
    )
    assert tx.tr_driver.buffer_region is Region.SYSTEM
    assert tx.tr_adapter.rx_buffer_region is Region.SYSTEM


def test_iocm_config_requires_the_card():
    from repro.drivers.token_ring import TokenRingDriver
    from repro.hardware.machine import Machine
    from repro.hardware.token_ring_adapter import TokenRingAdapter
    from repro.ring.network import TokenRing
    from repro.sim.engine import Simulator
    from repro.unix.kernel import Kernel

    sim = Simulator()
    ring = TokenRing(sim)
    machine = Machine(sim, "bare", has_io_channel_memory=False)
    kernel = Kernel(machine)
    adapter = TokenRingAdapter(machine, ring, "bare")
    with pytest.raises(ValueError):
        TokenRingDriver(kernel, adapter, TokenRingDriverConfig())


def test_pointer_passing_transmit_records_no_driver_copy():
    bed, tx, rx = build_pair()
    rx.tr_driver.register_ctms_sink(
        lambda f: True, lambda f, region, chain: iter([chain and chain.free()] and [])
    )
    send_from_driver(bed, tx, 0, make_ctmsp_frame())  # chain=None
    bed.run(100 * MS)
    assert tx.tr_driver.stats_tx_packets == 1
    assert (Region.SYSTEM, Region.IO_CHANNEL) not in tx.kernel.ledger.cpu


def test_header_only_copy_mode():
    bed, tx, rx = build_pair(
        tx_cfg=TokenRingDriverConfig(tx_copy_header_only=True)
    )
    rx.tr_driver.register_ctms_sink(
        lambda f: True, lambda f, region, chain: iter([chain and chain.free()] and [])
    )
    send_from_driver(bed, tx, 2000, make_ctmsp_frame())
    bed.run(100 * MS)
    rec = tx.kernel.ledger.cpu.get((Region.SYSTEM, Region.IO_CHANNEL))
    assert rec is not None and rec.bytes <= 32


def test_purge_retransmit_reissues_from_buffer():
    bed, tx, rx = build_pair(
        tx_cfg=TokenRingDriverConfig(purge_retransmit=True)
    )
    got = []
    rx.tr_driver.register_ctms_sink(
        lambda f: True,
        lambda f, region, chain: iter(
            [got.append(f.payload.packet_no), chain and chain.free()] and []
        ),
    )
    send_from_driver(bed, tx, 2000, make_ctmsp_frame(packet_no=5))
    # Purge while the frame is in flight (serialization takes ~4ms, and the
    # adapter command path ~1.4ms + fetch ~2.3ms before that).
    bed.sim.schedule(9 * MS, bed.ring.purge)
    bed.run(SEC)
    assert tx.tr_driver.stats_retransmits == 1
    assert got == [5]  # delivered on the second attempt


def test_tx_queue_depth_statistics():
    bed, tx, rx = build_pair()
    rx.tr_driver.register_ctms_sink(
        lambda f: True, lambda f, region, chain: iter([chain and chain.free()] and [])
    )
    for i in range(4):
        send_from_driver(bed, tx, 2000, make_ctmsp_frame(packet_no=i))
    bed.run(500 * MS)
    assert tx.tr_driver.stats_tx_queue_peak >= 3
    assert tx.tr_driver.tx_queue_depth == 0
