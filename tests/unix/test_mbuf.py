"""Tests for the mbuf pool, including the paper's exhaustion behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.unix.mbuf import (
    CLUSTER_DATA_BYTES,
    Mbuf,
    MbufExhausted,
    MbufPool,
)


def test_alloc_and_free_round_trip():
    pool = MbufPool(Simulator(), small_count=2, cluster_count=1)
    m = pool.try_alloc()
    assert pool.small_in_use == 1
    m.free()
    assert pool.small_in_use == 0


def test_exhaustion_raises_for_nowait():
    pool = MbufPool(Simulator(), small_count=1, cluster_count=0)
    pool.try_alloc()
    with pytest.raises(MbufExhausted):
        pool.try_alloc()
    assert pool.stats_failures == 1


def test_double_free_is_an_error():
    pool = MbufPool(Simulator(), small_count=1, cluster_count=0)
    m = pool.try_alloc()
    m.free()
    with pytest.raises(RuntimeError):
        m.free()


def test_alloc_wait_parks_until_release():
    sim = Simulator()
    pool = MbufPool(sim, small_count=1, cluster_count=0)
    first = pool.try_alloc()
    ev = pool.alloc_wait()
    assert not ev.triggered
    assert pool.stats_waits == 1
    first.free()
    assert ev.triggered
    assert isinstance(ev.value, Mbuf)
    # The buffer went straight to the waiter, never back to the free list.
    assert pool.small_in_use == 1


def test_alloc_wait_succeeds_immediately_when_available():
    pool = MbufPool(Simulator(), small_count=1, cluster_count=0)
    ev = pool.alloc_wait()
    assert ev.triggered


def test_waiters_are_type_matched():
    sim = Simulator()
    pool = MbufPool(sim, small_count=1, cluster_count=1)
    small = pool.try_alloc()
    cluster = pool.try_alloc(is_cluster=True)
    cluster_waiter = pool.alloc_wait(is_cluster=True)
    small.free()  # frees a small buffer; cluster waiter must stay parked
    assert not cluster_waiter.triggered
    cluster.free()
    assert cluster_waiter.triggered


def test_chain_for_2000_bytes_uses_two_clusters_and_a_tail():
    pool = MbufPool(Simulator())
    chain = pool.try_alloc_chain(2000)
    assert sum(m.length for m in chain.mbufs) == 2000
    kinds = [m.is_cluster for m in chain.mbufs]
    assert kinds == [True, True]  # 1024 + 976 fits in two clusters
    chain.free()
    assert pool.small_in_use == 0 and pool.cluster_in_use == 0


def test_chain_small_payload_uses_single_mbuf():
    pool = MbufPool(Simulator())
    chain = pool.try_alloc_chain(60)
    assert [m.is_cluster for m in chain.mbufs] == [False]
    chain.free()


def test_chain_allocation_is_all_or_nothing():
    pool = MbufPool(Simulator(), small_count=4, cluster_count=1)
    with pytest.raises(MbufExhausted):
        pool.try_alloc_chain(4096)  # needs 4 clusters
    assert pool.cluster_in_use == 0  # rolled back


def test_chain_append_beyond_capacity_rejected():
    pool = MbufPool(Simulator())
    chain = pool.try_alloc_chain(100)
    with pytest.raises(ValueError):
        chain.append_data(CLUSTER_DATA_BYTES * 10)
    chain.free()


def test_peak_accounting():
    pool = MbufPool(Simulator())
    chains = [pool.try_alloc_chain(2000) for _ in range(3)]
    for c in chains:
        c.free()
    assert pool.cluster_in_use == 0
    assert pool.peak_cluster_in_use == 6
    assert pool.peak_bytes_in_use() == 6 * CLUSTER_DATA_BYTES


@given(st.integers(min_value=1, max_value=20_000))
def test_chain_capacity_invariant(nbytes):
    pool = MbufPool(Simulator(), small_count=512, cluster_count=512)
    chain = pool.try_alloc_chain(nbytes)
    assert sum(m.length for m in chain.mbufs) == nbytes
    capacity = sum(m.capacity for m in chain.mbufs)
    assert capacity >= nbytes
    # Never wastes a whole extra cluster.
    assert capacity - nbytes < CLUSTER_DATA_BYTES
    chain.free()
    assert pool.bytes_in_use() == 0


@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30))
def test_pool_conservation_under_alloc_free_sequences(sizes):
    pool = MbufPool(Simulator(), small_count=1024, cluster_count=1024)
    chains = []
    for n in sizes:
        chains.append(pool.try_alloc_chain(n))
    in_use = pool.small_in_use + pool.cluster_in_use
    assert in_use == sum(len(c.mbufs) for c in chains)
    for c in chains:
        c.free()
    assert pool.small_in_use == 0
    assert pool.cluster_in_use == 0


def test_buffers_needed_matches_actual_allocation():
    pool = MbufPool(Simulator(), small_count=64, cluster_count=64)
    # One buffer per started 1 KB cluster's worth of data.
    needed = {1: 1, 112: 1, 113: 1, 1024: 1, 1025: 2, 2000: 2, 2048: 2, 5000: 5}
    for n, buffers in needed.items():
        chain = pool.try_alloc_chain(n)
        assert len(chain.mbufs) == buffers, n
        chain.free()
