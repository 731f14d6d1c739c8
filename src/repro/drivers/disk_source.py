"""A disk-backed CTMS source: the media file server role.

Section 1's deployment story ("The source machine must read a disc and
redirect the data flow onto the local area network") with the paper's
machinery: data is read ahead from the disk by DMA into IO Channel Memory
staging buffers, a stable pacing timer fires every 12 ms, and each tick
hands one CTMSP packet to the Token Ring driver *by pointer exchange* --
the Section 2 extension -- so the CPU never touches the media bytes at all.

Under-run behaviour is explicit: if the read-ahead pool cannot cover a
tick (a competing disk user caused a seek storm), the period is skipped and
counted, exactly the "discernible glitch" a listener would hear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.ctmsp import CTMSP_HEADER_BYTES, CTMSPPacket, PrecomputedHeader
from repro.hardware import calibration
from repro.hardware.cpu import Exec
from repro.hardware.disk import DiskAdapter
from repro.hardware.memory import Region
from repro.sim.units import US
from repro.unix.kernel import Kernel


@dataclass
class DiskSourceConfig:
    """Streaming parameters for one disk-backed stream."""

    #: Information-field bytes per CTMSP packet.
    packet_bytes: int = calibration.CTMSP_PACKET_BYTES
    #: Pacing period (the prototype's 12 ms).
    period: int = calibration.VCA_INTERRUPT_PERIOD
    #: Bytes fetched per disk read.
    read_chunk: int = 16_384
    #: Issue the next read when buffered data drops below this.
    readahead_low_water: int = 24_000
    #: Stop reading ahead beyond this (staging memory budget).
    readahead_high_water: int = 64_000
    stream_id: int = 2


class DiskStreamSource:
    """Stream a media file from disk onto the ring as CTMSP."""

    def __init__(
        self,
        kernel: Kernel,
        disk: DiskAdapter,
        tr_driver: Any,
        config: Optional[DiskSourceConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.cpu = kernel.cpu
        self.disk = disk
        self.tr_driver = tr_driver
        self.config = config or DiskSourceConfig()
        if self.config.packet_bytes <= CTMSP_HEADER_BYTES:
            raise ValueError("packet too small for the CTMSP header")
        self.header: Optional[PrecomputedHeader] = None
        self._dst_device = 0
        self._running = False
        self._pacing = False
        self._buffered = 0
        self._outstanding_bytes = 0
        self._file_offset = 0
        self._next_packet_no = 0
        self._staging_region = (
            Region.IO_CHANNEL
            if kernel.machine.memory.has_io_channel_memory
            else Region.SYSTEM
        )
        # --- statistics ---
        self.stats_packets_sent = 0
        self.stats_underruns = 0
        self.stats_disk_reads = 0

    # ------------------------------------------------------------------
    # setup (mirrors the VCA driver's CTMS_BIND ioctl)
    # ------------------------------------------------------------------
    def bind(self, dst: str, dst_device: int) -> Generator:
        """Compute the Token Ring header once for the connection."""
        yield Exec(self.tr_driver.compute_header_cost())
        self.header = PrecomputedHeader(
            src=self.tr_driver.adapter.address, dst=dst
        )
        self._dst_device = dst_device
        return self.header

    def start(self) -> None:
        """Begin read-ahead; pacing starts once the prefill is in place.

        Like any real player, the source fills its read-ahead pool to the
        low-water mark before the first packet leaves -- otherwise the
        first few periods would under-run while the disk spins up.
        """
        if self.header is None:
            raise RuntimeError("disk source started before bind()")
        if self._running:
            return
        self._running = True
        self._pacing = False
        self._fill_readahead()

    # ------------------------------------------------------------------
    # read-ahead
    # ------------------------------------------------------------------
    def _fill_readahead(self) -> None:
        """Keep buffered + in-flight data at the high-water mark.

        Stream reads carry disk priority 1 so batch I/O on the same spindle
        cannot starve the media stream -- the scheduling discipline a
        continuous-media server needs.
        """
        while (
            self._buffered + self._outstanding_bytes
            < self.config.readahead_high_water
        ):
            self._outstanding_bytes += self.config.read_chunk
            self.stats_disk_reads += 1
            offset = self._file_offset
            self._file_offset += self.config.read_chunk
            self.disk.read(
                offset,
                self.config.read_chunk,
                self._staging_region,
                self._read_done_handler,
                priority=1,
            )

    def _read_done_handler(self) -> Generator:
        """Disk completion interrupt: account the staged chunk."""
        yield Exec(40 * US)
        self._outstanding_bytes -= self.config.read_chunk
        self._buffered += self.config.read_chunk
        if not self._pacing and self._buffered >= self.config.readahead_low_water:
            self._pacing = True
            self.sim.schedule_fast(self.config.period, self._tick)
        if self._buffered < self.config.readahead_low_water:
            self._fill_readahead()

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.cpu.raise_irq(
            calibration.SPL_VCA, self._tick_handler, name="disk-stream"
        )
        self.sim.schedule_fast(self.config.period, self._tick)

    def _tick_handler(self) -> Generator:
        payload = self.config.packet_bytes - CTMSP_HEADER_BYTES
        if self._buffered < payload:
            # Read-ahead ran dry: one audible period lost.
            self.stats_underruns += 1
            yield Exec(20 * US)
            self._fill_readahead()
            return
        self._buffered -= payload
        packet = CTMSPPacket(
            stream_id=self.config.stream_id,
            packet_no=self._next_packet_no,
            dst_device=self._dst_device,
            data_bytes=payload,
            header=self.header,
            born_at=self.sim.now,
        )
        self._next_packet_no += 1
        yield Exec(60 * US)  # packetization bookkeeping
        self.stats_packets_sent += 1
        frame = packet.to_frame(
            ring_priority=self.tr_driver.config.ctmsp_ring_priority
        )
        # Pointer passing: the data already sits in a DMA-reachable staging
        # buffer; no chain, no driver copy.
        yield from self.tr_driver.output(None, frame)
        if self._buffered < self.config.readahead_low_water:
            self._fill_readahead()
