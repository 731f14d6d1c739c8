"""A fixed disk adapter of the RT/PC era.

Section 1: "The source machine must read a disc and redirect the data flow
onto the local area network."  The prototype used the VCA as its data
source, but a deployed CTMS server streams from storage, so the disk is
part of the full system.

The model is a late-80s SCSI-class drive: ~28 ms average seek, 8.3 ms
half-rotation latency at 3600 rpm, ~1 MB/s media transfer, a simple
elevator-free FIFO queue, and DMA into host memory (contending with the
CPU exactly like any other system-memory DMA -- or not, if the transfer
targets IO Channel Memory).
"""

from __future__ import annotations

from typing import Callable

from repro.hardware import calibration
from repro.hardware.machine import Machine
from repro.hardware.memory import MemorySystem, Region
from repro.sim.units import MS, US

#: Average seek time (ns).
DISK_AVG_SEEK = 28 * MS
#: Track-to-track seek (ns) for sequential access.
DISK_TRACK_SEEK = 4 * MS
#: Half-rotation latency at 3600 rpm (ns).
DISK_ROTATIONAL_LATENCY = 8_330 * US
#: Media rate: nanoseconds per byte (~1 MB/s).
DISK_NS_PER_BYTE = 1_000
#: Bytes per track -- reads within a track need no new seek.
DISK_TRACK_BYTES = 32_768


class DiskAdapter:
    """One fixed disk on the IO Channel.

    Requests carry a logical block offset so sequentiality is modeled:
    reading contiguous media files pays the full seek only when crossing
    tracks, which is what makes a single disk able to feed a 176 KB/s
    stream with margin.
    """

    def __init__(
        self,
        machine: Machine,
        name: str = "hd0",
        irq_level: int = calibration.SPL_BIO,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.name = name
        self.irq_level = irq_level
        self._busy = False
        self._queue: list[tuple[int, int, int, int, Region, Callable]] = []
        self._seq = 0
        self._head_offset = 0
        #: Fault injection: extra service time per read (a competing seek
        #: storm), set by repro.faults.injectors.
        self.fault_extra_service_ns = 0
        # --- statistics ---
        self.stats_reads = 0
        self.stats_bytes = 0
        self.stats_busy_ns = 0
        self.stats_seeks = 0

    def read(
        self,
        offset: int,
        nbytes: int,
        into_region: Region,
        on_done: Callable[[], object],
        priority: int = 0,
    ) -> None:
        """Queue a read of ``nbytes`` at byte ``offset``.

        ``on_done`` is raised as an interrupt handler factory when the DMA
        into ``into_region`` completes.  Higher ``priority`` requests are
        serviced first (FIFO within a priority) -- the scheduling hook a
        continuous-media file server needs to keep its streams ahead of
        batch I/O.
        """
        if nbytes <= 0:
            raise ValueError("empty disk read")
        self._seq += 1
        self._queue.append((priority, self._seq, offset, nbytes, into_region, on_done))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        best = min(self._queue, key=lambda r: (-r[0], r[1]))
        self._queue.remove(best)
        _priority, _seq, offset, nbytes, region, on_done = best
        service = self._service_time(offset, nbytes)
        self._head_offset = offset + nbytes
        self.stats_reads += 1
        self.stats_bytes += nbytes
        self.stats_busy_ns += service
        contends = MemorySystem.dma_involves_cpu_memory(region)
        if contends:
            self.cpu.contention_started()
        self.sim.schedule_fast(service, self._read_done, contends, on_done)

    def _service_time(self, offset: int, nbytes: int) -> int:
        same_track = (
            offset // DISK_TRACK_BYTES == self._head_offset // DISK_TRACK_BYTES
            and offset >= self._head_offset
        )
        if offset == self._head_offset and same_track:
            seek = 0  # pure sequential continuation
        elif same_track or offset // DISK_TRACK_BYTES == (
            self._head_offset // DISK_TRACK_BYTES + 1
        ):
            seek = DISK_TRACK_SEEK
            self.stats_seeks += 1
        else:
            seek = DISK_AVG_SEEK + DISK_ROTATIONAL_LATENCY
            self.stats_seeks += 1
        return seek + nbytes * DISK_NS_PER_BYTE + self.fault_extra_service_ns

    def _read_done(self, contends: bool, on_done: Callable) -> None:
        if contends:
            self.cpu.contention_ended()
        self.cpu.raise_irq(self.irq_level, on_done, name=f"{self.name}-io")
        self._start_next()

    @property
    def busy(self) -> bool:
        return self._busy
