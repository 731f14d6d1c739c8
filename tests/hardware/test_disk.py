"""Tests for the disk adapter model."""

import pytest

from repro.hardware.disk import (
    DISK_AVG_SEEK,
    DISK_NS_PER_BYTE,
    DISK_TRACK_BYTES,
    DiskAdapter,
)
from repro.hardware.machine import Machine
from repro.hardware.memory import Region
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC


def build():
    sim = Simulator()
    machine = Machine(sim, "server")
    machine.cpu.irq_entry_overhead = 0
    disk = DiskAdapter(machine)
    return sim, machine, disk


def make_handler(log, sim):
    def handler():
        log.append(sim.now)
        yield from iter(())

    return handler


def test_sequential_reads_skip_the_seek():
    sim, machine, disk = build()
    done = []
    # A far-away first read pays the full average seek...
    disk.read(100 * DISK_TRACK_BYTES, 8192, Region.IO_CHANNEL, make_handler(done, sim))
    sim.run()
    first = done[0]
    assert first >= DISK_AVG_SEEK + 8192 * DISK_NS_PER_BYTE
    # ...but the sequential continuation does not.
    disk.read(100 * DISK_TRACK_BYTES + 8192, 8192, Region.IO_CHANNEL, make_handler(done, sim))
    sim.run()
    assert done[1] - first < DISK_AVG_SEEK


def test_random_reads_pay_full_seeks():
    sim, machine, disk = build()
    done = []
    disk.read(50 * DISK_TRACK_BYTES, 1024, Region.IO_CHANNEL, make_handler(done, sim))
    disk.read(5 * DISK_TRACK_BYTES, 1024, Region.IO_CHANNEL, make_handler(done, sim))
    sim.run()
    assert done[1] - done[0] >= DISK_AVG_SEEK
    assert disk.stats_seeks == 2


def test_requests_queue_fifo():
    sim, machine, disk = build()
    done = []
    for i in range(3):
        disk.read(i * 1024, 1024, Region.IO_CHANNEL, make_handler(done, sim))
    sim.run()
    assert len(done) == 3
    assert done == sorted(done)


def test_sysmem_destination_contends_with_cpu():
    sim, machine, disk = build()
    from repro.hardware.cpu import Exec

    machine.cpu.interference_per_source = 1.0
    finished = []

    def compute():
        yield Exec(20 * MS)
        finished.append(sim.now)

    machine.cpu.spawn_base(compute())
    def nop():
        yield from iter(())

    disk.read(0, 16_384, Region.SYSTEM, nop)
    sim.run()
    # 16KB at 1us/B = ~16ms of DMA stealing cycles: the computation takes
    # notably longer than 20ms (+ context switch).
    assert finished[0] > 28 * MS


def test_iocm_destination_does_not_contend():
    sim, machine, disk = build()
    from repro.hardware.cpu import Exec

    machine.cpu.interference_per_source = 1.0
    finished = []

    def compute():
        yield Exec(20 * MS)
        finished.append(sim.now)

    machine.cpu.spawn_base(compute())
    def nop():
        yield from iter(())

    disk.read(0, 16_384, Region.IO_CHANNEL, nop)
    sim.run()
    assert finished[0] < 22 * MS


def test_sustained_rate_supports_cd_audio():
    sim, machine, disk = build()
    done = []
    for i in range(8):
        disk.read(i * 16_384, 16_384, Region.IO_CHANNEL, make_handler(done, sim))
    sim.run()
    # Sequential streaming easily exceeds CD audio's 176.4 KB/s.
    assert len(done) == 8
    assert 8 * 16_384 / (done[-1] / SEC) > 500_000


def test_empty_read_rejected():
    sim, machine, disk = build()
    def nop():
        yield from iter(())

    with pytest.raises(ValueError):
        disk.read(0, 0, Region.SYSTEM, nop)
