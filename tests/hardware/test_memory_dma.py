"""Tests for memory regions, copy costs, and which DMAs contend with the CPU."""

from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.memory import (
    MemorySystem,
    Region,
    cpu_copy_cost,
)
from repro.sim.units import US


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


def test_dma_contention_classification():
    involves = MemorySystem.dma_involves_cpu_memory
    assert involves(Region.SYSTEM, Region.ADAPTER)
    assert involves(Region.USER, Region.ADAPTER)
    assert not involves(Region.IO_CHANNEL, Region.ADAPTER)
    assert not involves(Region.ADAPTER, Region.ADAPTER)
