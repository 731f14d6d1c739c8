"""Memory regions of the IBM RT/PC model.

The RT/PC has two bus structures: the CPU-to-system-memory path and the IO
Channel Bus interconnecting adapters, arbitrated by the IO Channel Controller
(IOCC).  The paper's third modification exploits an adapter that is "solely
memory, called IO Channel Memory": DMA between another adapter and IO Channel
Memory stays on the IO Channel Bus and does not interfere with CPU accesses
to main system memory.

We model a region as a *kind* plus an accounting identity; actual payload
bytes travel inside packet objects, and copies are charged CPU or DMA time by
the copy/DMA engines according to the (source kind, destination kind) pair.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.hardware import calibration


class Region(enum.Enum):
    """Where a buffer physically lives."""

    #: Main system memory (mbufs, user pages, stock fixed DMA buffers).
    SYSTEM = "system"
    #: IO Channel Memory -- adapter RAM on the IO Channel Bus.
    IO_CHANNEL = "io_channel"
    #: On-card adapter memory reachable only by programmed I/O.
    ADAPTER = "adapter"
    #: A user process address space (system memory + VM crossing costs).
    USER = "user"

    # Region pairs key the copy-cost tables and the per-copy ledger, so this
    # hash runs on every simulated copy.  Enum's default __hash__ is a
    # Python-level method; members are singletons, so identity hashing is
    # equivalent and stays in C.
    __hash__ = object.__hash__


#: CPU copy cost (ns/byte) for each (source, destination) region pair.
CPU_COPY_COST: dict[tuple[Region, Region], int] = {
    (Region.SYSTEM, Region.SYSTEM): calibration.CPU_COPY_SYS_TO_SYS_NS_PER_BYTE,
    (Region.SYSTEM, Region.IO_CHANNEL): calibration.CPU_COPY_SYS_TO_IOCM_NS_PER_BYTE,
    (Region.IO_CHANNEL, Region.SYSTEM): calibration.CPU_COPY_IOCM_TO_SYS_NS_PER_BYTE,
    (Region.IO_CHANNEL, Region.IO_CHANNEL): calibration.CPU_COPY_SYS_TO_IOCM_NS_PER_BYTE,
    (Region.SYSTEM, Region.USER): calibration.CPU_COPY_KERNEL_USER_NS_PER_BYTE,
    (Region.USER, Region.SYSTEM): calibration.CPU_COPY_KERNEL_USER_NS_PER_BYTE,
    (Region.USER, Region.USER): calibration.CPU_COPY_KERNEL_USER_NS_PER_BYTE,
    (Region.SYSTEM, Region.ADAPTER): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.ADAPTER, Region.SYSTEM): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.IO_CHANNEL, Region.ADAPTER): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.ADAPTER, Region.IO_CHANNEL): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.USER, Region.ADAPTER): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.ADAPTER, Region.USER): calibration.CPU_PIO_ADAPTER_NS_PER_BYTE,
    (Region.USER, Region.IO_CHANNEL): calibration.CPU_COPY_SYS_TO_IOCM_NS_PER_BYTE,
    (Region.IO_CHANNEL, Region.USER): calibration.CPU_COPY_IOCM_TO_SYS_NS_PER_BYTE,
}


def cpu_copy_cost(src: Region, dst: Region, nbytes: int) -> int:
    """Nanoseconds of CPU work to copy ``nbytes`` from ``src`` to ``dst``."""
    return CPU_COPY_COST[(src, dst)] * nbytes


class MemoryRegion:
    """A named allocation in some :class:`Region` (e.g. a fixed DMA buffer)."""

    __slots__ = ("name", "region", "capacity", "owner")

    def __init__(
        self,
        name: str,
        region: Region,
        capacity: int,
        owner: Optional[str] = None,
    ) -> None:
        self.name = name
        self.region = region
        self.capacity = capacity
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryRegion {self.name} {self.region.value} {self.capacity}B>"


class MemorySystem:
    """Per-machine memory configuration and contention accounting.

    ``dma_involves_cpu_memory`` answers the question the IOCC arbiter decides
    on real hardware: does this DMA touch main system memory (and therefore
    steal CPU cycles)?
    """

    def __init__(self, has_io_channel_memory: bool = True) -> None:
        self.has_io_channel_memory = has_io_channel_memory
        #: Total bytes of IO Channel Memory fitted (informational).
        self.io_channel_bytes = 512 * 1024 if has_io_channel_memory else 0

    @staticmethod
    def dma_involves_cpu_memory(*regions: Region) -> bool:
        """True if a DMA touching ``regions`` contends with the CPU."""
        return any(r in (Region.SYSTEM, Region.USER) for r in regions)
