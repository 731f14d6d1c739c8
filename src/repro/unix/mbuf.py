"""The mbuf pool.

Section 2: "The UNIX model uses *mbufs* as a pool of buffers to transfer data
between the various layers of protocols. ... It should be noted that the
allocation of a mbuf can be delayed an arbitrarily long time if the pool is
exhausted at the time of the request."

We model 4.3BSD mbufs: small 128-byte buffers holding up to 112 bytes of
data, with 1024-byte *clusters* attached for bulk data.  A chain of mbufs
carries one packet.  The pool is finite; allocation either fails immediately
(``M_DONTWAIT``, the only option in interrupt context) or parks the caller on
a waiter list until buffers return (``M_WAIT``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.engine import Event, Simulator

#: Bytes of data a plain mbuf can hold (4.3BSD: 128-byte mbuf, ~112 usable).
MBUF_DATA_BYTES = 112
#: Bytes a cluster mbuf can hold (4.3BSD MCLBYTES).
CLUSTER_DATA_BYTES = 1024


class MbufExhausted(Exception):
    """Raised on a no-wait allocation when the pool is empty."""


class Mbuf:
    """One buffer from the pool."""

    __slots__ = ("pool", "is_cluster", "length", "freed")

    def __init__(self, pool: "MbufPool", is_cluster: bool) -> None:
        self.pool = pool
        self.is_cluster = is_cluster
        self.length = 0
        self.freed = False

    @property
    def capacity(self) -> int:
        return CLUSTER_DATA_BYTES if self.is_cluster else MBUF_DATA_BYTES

    def free(self) -> None:
        """Return the buffer to the pool (double frees are errors)."""
        self.pool._release(self)


class MbufChain:
    """A linked list of mbufs carrying one packet."""

    __slots__ = ("mbufs",)

    def __init__(self, mbufs: Optional[list[Mbuf]] = None) -> None:
        self.mbufs: list[Mbuf] = mbufs or []

    @property
    def length(self) -> int:
        """Total data bytes in the chain."""
        return sum(m.length for m in self.mbufs)

    @property
    def buffer_count(self) -> int:
        return len(self.mbufs)

    def append_data(self, nbytes: int) -> None:
        """Account ``nbytes`` of data into the chain's existing capacity."""
        remaining = nbytes
        for m in self.mbufs:
            room = m.capacity - m.length
            if room <= 0:
                continue
            take = min(room, remaining)
            m.length += take
            remaining -= take
            if remaining == 0:
                return
        if remaining:
            raise ValueError(
                f"chain capacity exceeded by {remaining} bytes; allocate more mbufs"
            )

    def free(self) -> None:
        """Free every mbuf in the chain."""
        for m in self.mbufs:
            m.free()
        self.mbufs = []


class MbufPool:
    """The per-machine pool of mbufs and clusters.

    Both the paper's prototype and the stock path allocate from here; the
    pool's high-water mark feeds the Section 6 buffer-space conclusion.
    """

    def __init__(
        self,
        sim: Simulator,
        small_count: int = 256,
        cluster_count: int = 64,
    ) -> None:
        self.sim = sim
        self.small_count = small_count
        self.cluster_count = cluster_count
        self._small_free = small_count
        self._cluster_free = cluster_count
        self._waiters: deque[tuple[bool, Event]] = deque()
        # --- statistics ---
        self.stats_allocs = 0
        self.stats_failures = 0
        self.stats_waits = 0
        self.peak_small_in_use = 0
        self.peak_cluster_in_use = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def try_alloc(self, is_cluster: bool = False) -> Mbuf:
        """``M_DONTWAIT`` allocation; raises :class:`MbufExhausted` if empty."""
        if is_cluster:
            if self._cluster_free == 0:
                self.stats_failures += 1
                raise MbufExhausted("cluster pool empty")
            self._cluster_free -= 1
            self.peak_cluster_in_use = max(
                self.peak_cluster_in_use, self.cluster_count - self._cluster_free
            )
        else:
            if self._small_free == 0:
                self.stats_failures += 1
                raise MbufExhausted("mbuf pool empty")
            self._small_free -= 1
            self.peak_small_in_use = max(
                self.peak_small_in_use, self.small_count - self._small_free
            )
        self.stats_allocs += 1
        return Mbuf(self, is_cluster)

    def alloc_wait(self, is_cluster: bool = False) -> Event:
        """``M_WAIT`` allocation: an event that succeeds with the mbuf.

        May succeed immediately; otherwise the caller is parked FIFO --
        "delayed an arbitrarily long time".
        """
        ev = self.sim.event(name="mbuf-wait")
        try:
            ev.succeed(self.try_alloc(is_cluster))
        except MbufExhausted:
            self.stats_waits += 1
            self._waiters.append((is_cluster, ev))
        return ev

    def try_alloc_chain(self, nbytes: int) -> MbufChain:
        """Allocate a chain big enough for ``nbytes`` (no-wait).

        Uses clusters for bulk and a small mbuf for any sub-cluster tail,
        matching how 4.3BSD drivers build packet chains.  On failure,
        everything grabbed so far is released and :class:`MbufExhausted`
        propagates -- the all-or-nothing behaviour of ``m_getclr`` loops.
        """
        if nbytes <= 0:
            raise ValueError("empty chain requested")
        # Bulk fast path: the buffer mix is fully determined by nbytes
        # (clusters while more than a small mbuf remains, then one small
        # tail), so when the pool can cover it we decrement the free counts
        # once and build the chain directly instead of looping through
        # try_alloc and re-scanning the chain in append_data.  The slow loop
        # below stays as the fallback so exhaustion keeps its exact
        # failure-accounting and rollback semantics.
        if nbytes > MBUF_DATA_BYTES:
            nclusters = (nbytes - MBUF_DATA_BYTES - 1) // CLUSTER_DATA_BYTES + 1
            nsmall = 1 if nbytes > nclusters * CLUSTER_DATA_BYTES else 0
        else:
            nclusters = 0
            nsmall = 1
        if self._cluster_free >= nclusters and self._small_free >= nsmall:
            self._cluster_free -= nclusters
            self._small_free -= nsmall
            in_use = self.cluster_count - self._cluster_free
            if in_use > self.peak_cluster_in_use:
                self.peak_cluster_in_use = in_use
            in_use = self.small_count - self._small_free
            if in_use > self.peak_small_in_use:
                self.peak_small_in_use = in_use
            self.stats_allocs += nclusters + nsmall
            mbufs = []
            remaining = nbytes
            for _ in range(nclusters):
                m = Mbuf(self, True)
                take = (
                    CLUSTER_DATA_BYTES
                    if remaining >= CLUSTER_DATA_BYTES
                    else remaining
                )
                m.length = take
                remaining -= take
                mbufs.append(m)
            if nsmall:
                m = Mbuf(self, False)
                m.length = remaining
                mbufs.append(m)
            return MbufChain(mbufs)
        grabbed: list[Mbuf] = []
        try:
            remaining = nbytes
            while remaining > 0:
                want_cluster = remaining > MBUF_DATA_BYTES
                m = self.try_alloc(is_cluster=want_cluster)
                grabbed.append(m)
                remaining -= m.capacity
        except MbufExhausted:
            for m in grabbed:
                m.free()
            raise
        chain = MbufChain(grabbed)
        chain.append_data(nbytes)
        return chain

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def _release(self, m: Mbuf) -> None:
        if m.freed:
            raise RuntimeError("mbuf double free")
        m.freed = True
        m.length = 0
        # Hand the buffer straight to a compatible waiter if any.
        for i, (wants_cluster, ev) in enumerate(self._waiters):
            if wants_cluster == m.is_cluster:
                del self._waiters[i]
                fresh = Mbuf(self, m.is_cluster)
                ev.succeed(fresh)
                return
        if m.is_cluster:
            self._cluster_free += 1
        else:
            self._small_free += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def small_in_use(self) -> int:
        return self.small_count - self._small_free

    @property
    def cluster_in_use(self) -> int:
        return self.cluster_count - self._cluster_free

    def bytes_in_use(self) -> int:
        """Pool bytes currently held (buffer capacity, as the kernel sizes it)."""
        return (
            self.small_in_use * MBUF_DATA_BYTES
            + self.cluster_in_use * CLUSTER_DATA_BYTES
        )

    def peak_bytes_in_use(self) -> int:
        """High-water mark in bytes -- the Section 6 buffer-space metric."""
        return (
            self.peak_small_in_use * MBUF_DATA_BYTES
            + self.peak_cluster_in_use * CLUSTER_DATA_BYTES
        )
