"""Unit tests for the Token Ring adapter hardware model."""

import pytest

from repro.hardware.machine import Machine
from repro.hardware.memory import Region
from repro.hardware.token_ring_adapter import TokenRingAdapter
from repro.ring.frames import Frame
from repro.ring.network import TokenRing
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC, US
from repro.unix.copy import CopyLedger


def build(rx_buffers=2, purge_mode=False):
    sim = Simulator()
    ring = TokenRing(sim)
    m1 = Machine(sim, "m1", RandomStreams(1))
    m2 = Machine(sim, "m2", RandomStreams(1))
    a1 = TokenRingAdapter(
        m1, ring, "m1", ledger=CopyLedger(), rx_buffer_count=rx_buffers,
        purge_interrupt_mode=purge_mode,
    )
    a2 = TokenRingAdapter(
        m2, ring, "m2", ledger=CopyLedger(), rx_buffer_count=rx_buffers,
        purge_interrupt_mode=purge_mode,
    )
    return sim, ring, m1, m2, a1, a2


def frame(nbytes=2000, dst="m2"):
    return Frame(src="m1", dst=dst, info_bytes=nbytes, protocol="ip")


def test_transmit_command_fetches_then_sends_then_interrupts():
    sim, ring, m1, m2, a1, a2 = build()
    events = []

    def txdone():
        events.append(("txdone", sim.now))
        yield from iter(())

    a1.on_tx_complete = txdone
    f = frame()
    a1.command_transmit(f, Region.IO_CHANNEL)
    assert a1.tx_in_progress
    sim.run(until=SEC)
    assert not a1.tx_in_progress
    assert len(events) == 1
    # Command latency + fetch + wire + ring circulation all elapsed first.
    assert events[0][1] > 1_400 * US + 2_000 * US + 4_000 * US


def test_double_transmit_command_is_a_driver_bug():
    sim, ring, m1, m2, a1, a2 = build()
    a1.command_transmit(frame(), Region.IO_CHANNEL)
    with pytest.raises(SimulationError):
        a1.command_transmit(frame(), Region.IO_CHANNEL)


def test_rx_buffers_limit_concurrent_receives():
    sim, ring, m1, m2, a1, a2 = build(rx_buffers=1)
    # Never release the rx buffer: the second frame overruns.
    held = []

    def rx(frame, region):
        held.append(frame)
        yield from iter(())  # driver "forgets" to release

    a2.on_rx_frame = rx
    a1.command_transmit(frame(500), Region.IO_CHANNEL)
    sim.run(until=SEC)
    a1.command_transmit(frame(500), Region.IO_CHANNEL)
    sim.run(until=2 * SEC)
    assert len(held) == 1
    assert a2.stats_rx_overruns == 1


def test_release_underflow_rejected():
    sim, ring, m1, m2, a1, a2 = build()
    with pytest.raises(SimulationError):
        a2.release_rx_buffer()


def test_tx_dma_fetch_is_recorded_on_the_ledger():
    sim, ring, m1, m2, a1, a2 = build()
    a1.command_transmit(frame(1000), Region.IO_CHANNEL)
    sim.run(until=SEC)
    assert (Region.IO_CHANNEL, Region.ADAPTER) in a1.ledger.dma
    rec = a1.ledger.dma[(Region.IO_CHANNEL, Region.ADAPTER)]
    assert rec.bytes == 1000


def test_sysmem_fetch_contends_with_cpu():
    from repro.hardware.cpu import Exec

    def compute_done_with_fetch_from(region):
        sim, ring, m1, m2, a1, a2 = build()
        m1.cpu.interference_per_source = 1.0
        finished = []

        def compute():
            yield Exec(10 * MS)
            finished.append(sim.now)

        m1.cpu.spawn_base(compute())
        if region is not None:
            a1.command_transmit(frame(2000), region)
        sim.run(until=SEC)
        return finished[0]

    # 2000B fetch at 1.125us/B = 2.25ms of DMA at 2x slowdown steals
    # ~1.1ms of CPU progress.
    assert compute_done_with_fetch_from(Region.SYSTEM) > 10 * MS + 1 * MS
    # The same fetch from IO Channel Memory stays on the IO Channel bus and
    # leaves the computation alone (the paper's third modification).
    assert compute_done_with_fetch_from(Region.IO_CHANNEL) == compute_done_with_fetch_from(None)


def test_purge_without_purge_mode_reports_normal_completion():
    sim, ring, m1, m2, a1, a2 = build(purge_mode=False)
    completions = []

    def txdone():
        completions.append("txdone")
        yield from iter(())

    a1.on_tx_complete = txdone
    a1.command_transmit(frame(2000), Region.IO_CHANNEL)
    # cmd (1.4ms) + fetch (2.25ms) put the frame on the wire ~3.7-7.7ms in.
    sim.schedule(5 * MS, ring.purge)
    sim.run(until=SEC)
    # Stock firmware: the driver sees an ordinary transmit completion even
    # though the ring model knows the frame died.
    assert completions == ["txdone"]
    assert a1.stats_tx_lost_in_purge == 1


def test_purge_mode_raises_the_special_interrupt():
    sim, ring, m1, m2, a1, a2 = build(purge_mode=True)
    events = []

    def txdone():
        events.append("txdone")
        a1.release_rx_buffer if False else None
        yield from iter(())

    def purge_seen():
        events.append("purge")
        yield from iter(())

    a1.on_tx_complete = txdone
    a1.on_purge_detected = purge_seen
    a1.command_transmit(frame(2000), Region.IO_CHANNEL)
    sim.schedule(5 * MS, ring.purge)
    sim.run(until=SEC)
    assert "purge" in events
    assert "txdone" not in events  # the purge path replaced the completion


def test_mac_frames_never_reach_the_host():
    from repro.ring.frames import mac_frame

    sim, ring, m1, m2, a1, a2 = build()
    got = []

    def rx(frame, region):
        got.append(frame)
        yield from iter(())

    a2.on_rx_frame = rx
    a1.station.transmit(mac_frame("m1"))
    sim.run(until=SEC)
    assert got == []
    assert a2.station.stats_mac_frames_seen == 1
