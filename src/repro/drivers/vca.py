"""The Voice Communications Adapter driver.

Three roles, matching how the paper uses the card:

* **CTMS source** (Section 5.1): the DSP interrupts the host every 12 ms;
  the modified interrupt handler builds a CTMSP packet -- mbuf chain,
  precomputed Token Ring header, destination device number, packet number,
  data appended to 2000 bytes -- and hands it straight to the Token Ring
  driver ("We hard coded in the VCA's device driver calls to the Token Ring
  device driver").
* **CTMS sink**: the driver registers classify/deliver function handles with
  the Token Ring driver (the paper's new ``ioctl``-established direct path)
  and consumes packets as they are classified, optionally copying them into
  the device buffer, with duplicate/gap tracking.
* **stock character device**: the plain UNIX discipline -- the interrupt
  handler deposits device buffers, a user process ``read()``s them out
  through the kernel (two more copies).  This is the Figure 2-1 baseline.

The new ioctls of Section 5.1 are all here: set up the special mode, request
the Token Ring header "and keep this header as part of the state of the
device", and request the function handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.core.ctmsp import CTMSP_HEADER_BYTES, CTMSPPacket, PrecomputedHeader
from repro.core.recovery import SequenceTracker
from repro.core.stream import StreamStats
from repro.hardware import calibration
from repro.hardware.cpu import Exec, RaiseSpl, SetSpl
from repro.hardware.memory import Region, cpu_copy_cost
from repro.hardware.vca import VoiceCommunicationsAdapter
from repro.ring.frames import Frame
from repro.sim.units import US
from repro.unix.copy import cpu_copy
from repro.unix.kernel import Kernel
from repro.unix.mbuf import MbufChain, MbufExhausted

#: A VCA probe: fn(packet_no) -> extra CPU ns to charge inline (or None).
ProbeFn = Callable[[int], Optional[int]]

#: Measurement point 2: entry into the VCA's interrupt handler.
PROBE_HANDLER_ENTRY = "p2"

#: Sink delivery bookkeeping cost; Exec ops are immutable, so every
#: delivered packet shares one instance instead of allocating per call.
_EXEC_SINK_DELIVER = Exec(25 * US)


@dataclass
class VCADriverConfig:
    """Per-scenario behaviour switches (the Section 5.3 matrix, VCA side)."""

    #: Transmitter copies the real device data from the VCA buffer into the
    #: mbufs (Test Case B) or skips it (Test Case A sends filler only).
    copy_vca_data_to_mbufs: bool = True
    #: Sink copies received data out of mbufs into the VCA device buffer
    #: (Test Case B "full copying") vs "no copy of the data (dropping the
    #: packet)" (Test Case A).
    sink_copy_to_device: bool = False
    #: Information-field bytes per packet (header + data).
    packet_bytes: int = calibration.CTMSP_PACKET_BYTES
    #: Real device bytes produced per 12 ms period.
    device_bytes_per_period: int = calibration.VCA_DEVICE_BYTES_PER_PERIOD
    #: CTMS stream id.
    stream_id: int = 1
    #: Pointer-passing source (the Section 2 extension): the handler copies
    #: the device data straight into a DMA-reachable staging buffer and the
    #: Token Ring driver transmits by pointer exchange -- no mbuf chain, no
    #: driver copy ("direct copy of data from the VCA device buffer to fixed
    #: DMA buffers" in the Section 5.3 matrix).
    source_direct_to_buffer: bool = False
    #: Use the connection-lifetime precomputed Token Ring header (Section 3).
    #: False models the stock discipline of recomputing it per packet, for
    #: the header-precomputation ablation.
    precomputed_header: bool = True


class VCADriver:
    """One machine's VCA driver."""

    def __init__(
        self,
        kernel: Kernel,
        adapter: VoiceCommunicationsAdapter,
        config: Optional[VCADriverConfig] = None,
        device_number: int = 7,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.adapter = adapter
        self.config = config or VCADriverConfig()
        self.device_number = device_number
        self.header: Optional[PrecomputedHeader] = None
        self.tr_driver: Any = None  # wired by CTMS_BIND / CTMS_ATTACH_SINK
        self._next_packet_no = 0
        self.probes: dict[str, list[ProbeFn]] = {}

        # sink state
        self.tracker = SequenceTracker()
        self.stream_stats = StreamStats()

        # stock-mode state
        self._stock_ready = 0
        self._stock_fifo_depth = max(
            1, self.adapter.BUFFER_BYTES // max(1, self.config.packet_bytes)
        )

        # Per-driver transmit constants (config is fixed after construction,
        # so every packet charges the same copy costs): built lazily on the
        # first source interrupt, once CTMS_BIND has run.
        self._tx_hot: Optional[tuple] = None

        # --- statistics ---
        self.stats_packets_built = 0
        self.stats_drops_no_mbufs = 0
        self.stats_stock_overruns = 0
        self.stats_stock_reads = 0

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def add_probe(self, point: str, fn: ProbeFn) -> None:
        self.probes.setdefault(point, []).append(fn)

    def _fire_probe(self, point: str, packet_no: int) -> Generator:
        for fn in self.probes.get(point, ()):
            extra = fn(packet_no)
            if extra:
                yield Exec(extra)

    # ------------------------------------------------------------------
    # ioctl surface (the paper's new calls)
    # ------------------------------------------------------------------
    def dev_ioctl(self, proc: Any, op: str, arg: Any = None) -> Generator:
        """ioctl entry point (a generator run in the calling process)."""
        yield Exec(20 * US)
        if op == "CTMS_BIND":
            result = yield from self._ioctl_bind(arg)
            return result
        if op == "CTMS_ATTACH_SINK":
            return self._ioctl_attach_sink(arg)
        if op == "CTMS_START":
            self.adapter.attach_handler(self._source_interrupt_handler)
            self.adapter.start(
                align_to_now=bool(arg and arg.get("align_to_now"))
            )
            return True
        if op == "CTMS_STOP":
            self.adapter.stop()
            return True
        if op == "CTMS_GET_STATS":
            return self.stream_stats
        if op == "STOCK_START":
            self.adapter.attach_handler(self._stock_interrupt_handler)
            self.adapter.start()
            return True
        raise ValueError(f"unknown VCA ioctl {op!r}")

    def _ioctl_bind(self, arg: dict) -> Generator:
        """Bind the source to a destination: compute the header *once*.

        Section 5.1: "to request the Token Ring header and keep this header
        as part of the state of the device, and to request handles to
        functions needed by the modified Token Ring device driver."
        """
        tr_driver = arg["tr_driver"]
        self.tr_driver = tr_driver
        yield Exec(tr_driver.compute_header_cost())
        self.header = PrecomputedHeader(
            src=tr_driver.adapter.address, dst=arg["dst"]
        )
        self._dst_device = arg.get("dst_device", 0)
        start_packet_no = arg.get("start_packet_no")
        if start_packet_no is not None:
            # Failover resume: a replica source continues the stream's
            # packet numbering from the sink's high-water mark instead of
            # restarting at zero (which the sink would record as a flood of
            # duplicates and a reorder storm).
            self._next_packet_no = int(start_packet_no)
        return self.header

    def _ioctl_attach_sink(self, arg: dict) -> bool:
        """Register this driver as the direct-delivery sink on the TR driver."""
        tr_driver = arg["tr_driver"]
        self.tr_driver = tr_driver
        tr_driver.register_ctms_sink(self.ctms_classify, self.ctms_deliver)
        return True

    # ------------------------------------------------------------------
    # CTMS source: the modified interrupt handler (Section 5.1)
    # ------------------------------------------------------------------
    def _build_tx_hot(self) -> tuple:
        """Precompute the per-packet transmit plan (see ``_tx_hot``)."""
        config = self.config
        data_bytes = config.packet_bytes - CTMSP_HEADER_BYTES
        exec_header_copy = Exec(
            cpu_copy_cost(Region.SYSTEM, Region.SYSTEM, CTMSP_HEADER_BYTES)
        )
        device_bytes = min(config.device_bytes_per_period, data_bytes)
        if config.copy_vca_data_to_mbufs and device_bytes:
            filler_bytes = data_bytes - device_bytes
            exec_device_copy = Exec(
                cpu_copy_cost(Region.ADAPTER, Region.SYSTEM, device_bytes)
            )
        else:
            filler_bytes = data_bytes
            device_bytes = 0
            exec_device_copy = None
        exec_filler_copy = (
            Exec(cpu_copy_cost(Region.SYSTEM, Region.SYSTEM, filler_bytes))
            if filler_bytes
            else None
        )
        return (
            data_bytes,
            CTMSP_HEADER_BYTES + data_bytes,  # info_bytes
            exec_header_copy,
            device_bytes,
            exec_device_copy,
            filler_bytes,
            exec_filler_copy,
            Exec(calibration.VCA_HANDLER_CODE),
            {},  # buffer_count -> Exec(MBUF_ALLOC_COST * count)
            self.tr_driver.config.ctmsp_ring_priority,
        )

    def _source_interrupt_handler(self) -> Generator:
        packet_no = self._next_packet_no
        self._next_packet_no += 1
        born = self.sim.now
        if self.probes:
            # Measurement point 2: handler entry, before any work.
            yield from self._fire_probe(PROBE_HANDLER_ENTRY, packet_no)
        if self.header is None:
            raise RuntimeError("CTMS source started before CTMS_BIND")
        if not self.config.precomputed_header:
            # Ablation: recompute the Token Ring header per packet, the way
            # IP does -- the cost CTMSP's static connection avoids.
            yield Exec(self.tr_driver.compute_header_cost())
        hot = self._tx_hot
        if hot is None:
            hot = self._tx_hot = self._build_tx_hot()
        (
            data_bytes,
            info_bytes,
            exec_header_copy,
            device_bytes,
            exec_device_copy,
            filler_bytes,
            exec_filler_copy,
            exec_handler,
            alloc_execs,
            ring_priority,
        ) = hot
        packet = CTMSPPacket(
            stream_id=self.config.stream_id,
            packet_no=packet_no,
            dst_device=self._dst_device,
            data_bytes=data_bytes,
            header=self.header,
            born_at=born,
        )
        if self.config.source_direct_to_buffer:
            yield from self._source_direct(packet)
            return
        try:
            chain = self.kernel.mbufs.try_alloc_chain(info_bytes)
        except MbufExhausted:
            # Interrupt context cannot wait for mbufs; the period is lost.
            self.stats_drops_no_mbufs += 1
            return
        nbufs = len(chain.mbufs)
        exec_alloc = alloc_execs.get(nbufs)
        if exec_alloc is None:
            exec_alloc = alloc_execs[nbufs] = Exec(
                calibration.MBUF_ALLOC_COST * nbufs
            )
        yield exec_alloc
        ledger = self.kernel.ledger
        # Copy the precomputed header into the chain.
        ledger.record_cpu(Region.SYSTEM, Region.SYSTEM, CTMSP_HEADER_BYTES)
        yield exec_header_copy
        if exec_device_copy is not None:
            # Byte-wide programmed I/O out of the card's memory.
            ledger.record_cpu(Region.ADAPTER, Region.SYSTEM, device_bytes)
            yield exec_device_copy
        if exec_filler_copy is not None:
            # "We then appended the packet with data": filler from a static
            # kernel buffer.
            ledger.record_cpu(Region.SYSTEM, Region.SYSTEM, filler_bytes)
            yield exec_filler_copy
        yield exec_handler
        self.stats_packets_built += 1
        frame = packet.to_frame(ring_priority=ring_priority)
        yield from self.tr_driver.output(chain, frame)

    def _source_direct(self, packet: CTMSPPacket) -> Generator:
        """Pointer-passing transmit: stage data where the adapter can DMA it.

        One CPU copy remains because the VCA has no DMA of its own --
        exactly the paper's "If only one of the two devices is capable of
        DMA, then only one copy can be eliminated."
        """
        staging = (
            Region.IO_CHANNEL
            if self.kernel.machine.memory.has_io_channel_memory
            else Region.SYSTEM
        )
        yield from cpu_copy(
            self.kernel.ledger, Region.ADAPTER, staging, packet.data_bytes
        )
        yield Exec(calibration.VCA_HANDLER_CODE)
        self.stats_packets_built += 1
        frame = packet.to_frame(
            ring_priority=self.tr_driver.config.ctmsp_ring_priority
        )
        yield from self.tr_driver.output(None, frame)

    # ------------------------------------------------------------------
    # CTMS sink: the direct-delivery handles
    # ------------------------------------------------------------------
    def ctms_classify(self, frame: Frame) -> bool:
        """The handle that "returns true when the packet should be directly
        transferred to the device"."""
        packet = frame.payload
        return (
            isinstance(packet, CTMSPPacket)
            and packet.dst_device == self.device_number
        )

    def ctms_deliver(
        self, frame: Frame, residency: Region, chain: Optional[MbufChain]
    ) -> Generator:
        """The sink's receive function, run inside the TR receive handler."""
        packet: CTMSPPacket = frame.payload
        yield _EXEC_SINK_DELIVER
        outcome = self.tracker.record(packet.packet_no)
        self.stream_stats.record_delivery(
            packet, self.sim.now, outcome=outcome
        )
        if outcome == "duplicate":
            # "The receiver ... might need to ignore a duplicate packet."
            if chain is not None:
                chain.free()
            return
        if self.config.sink_copy_to_device:
            yield from cpu_copy(
                self.kernel.ledger, residency, Region.ADAPTER, packet.data_bytes
            )
        if chain is not None:
            chain.free()

    # ------------------------------------------------------------------
    # stock character-device role (the Figure 2-1 baseline)
    # ------------------------------------------------------------------
    def _stock_interrupt_handler(self) -> Generator:
        """Unmodified driver: deposit a device buffer and wake the reader."""
        yield Exec(40 * US)
        if self._stock_ready >= self._stock_fifo_depth:
            # Reader was too slow; on-card buffer overwritten -- a glitch.
            self.stats_stock_overruns += 1
            return
        self._stock_ready += 1
        self.kernel.wakeup(self._stock_channel())

    def _stock_channel(self) -> str:
        return f"vca{self.device_number}-read"

    def dev_read(self, proc: Any, nbytes: int) -> Generator:
        """Stock ``read()``: block for data, then copy device->kernel->user."""
        old = yield RaiseSpl(calibration.SPL_VCA)
        while self._stock_ready == 0:
            yield SetSpl(old)
            yield from self.kernel.sleep(self._stock_channel())
            old = yield RaiseSpl(calibration.SPL_VCA)
        self._stock_ready -= 1
        yield SetSpl(old)
        self.stats_stock_reads += 1
        # Device buffer -> kernel buffer (byte-wide PIO; no DMA on this card,
        # footnote 3), then kernel -> user.
        yield from cpu_copy(
            self.kernel.ledger, Region.ADAPTER, Region.SYSTEM, nbytes
        )
        yield from cpu_copy(
            self.kernel.ledger, Region.SYSTEM, Region.USER, nbytes
        )
        return nbytes

    def dev_write(self, proc: Any, nbytes: int, payload: Any = None) -> Generator:
        """Stock ``write()``: user -> kernel -> device buffer."""
        yield from cpu_copy(
            self.kernel.ledger, Region.USER, Region.SYSTEM, nbytes
        )
        yield from cpu_copy(
            self.kernel.ledger, Region.SYSTEM, Region.ADAPTER, nbytes
        )
        return nbytes
