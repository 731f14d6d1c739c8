"""Tests for memory regions, copy costs, and DMA contention."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware import calibration
from repro.hardware.cpu import CPU, Exec
from repro.hardware.dma import DMAEngine
from repro.hardware.memory import (
    MemorySystem,
    Region,
    cpu_copy_cost,
)
from repro.sim.engine import Simulator
from repro.sim.units import MS, US


def test_paper_copy_rate_sys_to_iocm():
    # "on the order of 1 microsecond per byte" -> 2000 bytes = 2000 us.
    assert cpu_copy_cost(Region.SYSTEM, Region.IO_CHANNEL, 2000) == 2000 * US


def test_sys_to_sys_is_much_cheaper_than_crossing_io_channel():
    same = cpu_copy_cost(Region.SYSTEM, Region.SYSTEM, 1000)
    cross = cpu_copy_cost(Region.SYSTEM, Region.IO_CHANNEL, 1000)
    assert cross >= 5 * same


@given(
    st.sampled_from(list(Region)),
    st.sampled_from(list(Region)),
    st.integers(min_value=0, max_value=100_000),
)
def test_copy_cost_is_linear_in_bytes(src, dst, n):
    if (src, dst) not in __import__("repro.hardware.memory", fromlist=["CPU_COPY_COST"]).CPU_COPY_COST:
        return
    assert cpu_copy_cost(src, dst, n) == n * cpu_copy_cost(src, dst, 1)


def test_iocm_allocation_requires_card():
    with_card = MemorySystem(has_io_channel_memory=True)
    region = with_card.allocate("txbuf", Region.IO_CHANNEL, 4096)
    assert region.region is Region.IO_CHANNEL

    without = MemorySystem(has_io_channel_memory=False)
    with pytest.raises(ValueError):
        without.allocate("txbuf", Region.IO_CHANNEL, 4096)
    fallback = without.allocate("txbuf", Region.SYSTEM, 4096)
    assert fallback.region is Region.SYSTEM


def test_dma_contention_classification():
    involves = MemorySystem.dma_involves_cpu_memory
    assert involves(Region.SYSTEM, Region.ADAPTER)
    assert involves(Region.USER, Region.ADAPTER)
    assert not involves(Region.IO_CHANNEL, Region.ADAPTER)
    assert not involves(Region.ADAPTER, Region.ADAPTER)


def test_dma_transfer_duration_and_callback():
    sim = Simulator()
    engine = DMAEngine(sim, cpu=None, name="tr-dma", ns_per_byte=1000)
    done_at = []
    engine.transfer(2000, Region.IO_CHANNEL, Region.ADAPTER, lambda: done_at.append(sim.now))
    sim.run()
    assert done_at == [2000 * US]
    assert engine.stats_bytes == 2000


def test_dma_transfers_queue_fifo():
    sim = Simulator()
    engine = DMAEngine(sim, cpu=None, name="dma", ns_per_byte=100)
    order = []
    engine.transfer(10, Region.ADAPTER, Region.IO_CHANNEL, lambda: order.append(("a", sim.now)))
    engine.transfer(20, Region.ADAPTER, Region.IO_CHANNEL, lambda: order.append(("b", sim.now)))
    sim.run()
    assert order == [("a", 1000), ("b", 3000)]


def test_sysmem_dma_registers_cpu_contention():
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=0, context_switch_cost=0)
    cpu.interference_per_source = 1.0  # work runs at half speed under DMA
    engine = DMAEngine(sim, cpu=cpu, name="dma", ns_per_byte=1000)
    finish = []

    def body():
        yield Exec(100 * US)
        finish.append(sim.now)

    cpu.spawn_base(body())
    engine.transfer(50, Region.SYSTEM, Region.ADAPTER)  # 50us of DMA
    sim.run()
    # 50us at half speed = 25us of work done, then 75us at full speed.
    assert finish == [125 * US]


def test_iocm_dma_does_not_touch_cpu():
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=0, context_switch_cost=0)
    cpu.interference_per_source = 1.0
    engine = DMAEngine(sim, cpu=cpu, name="dma", ns_per_byte=1000)
    finish = []

    def body():
        yield Exec(100 * US)
        finish.append(sim.now)

    cpu.spawn_base(body())
    engine.transfer(50, Region.IO_CHANNEL, Region.ADAPTER)
    sim.run()
    assert finish == [100 * US]
    assert engine.stats_contending_transfers == 0


def test_zero_byte_dma_rejected():
    sim = Simulator()
    engine = DMAEngine(sim, cpu=None, name="dma", ns_per_byte=100)
    with pytest.raises(ValueError):
        engine.transfer(0, Region.SYSTEM, Region.SYSTEM)
