"""The Token Ring device driver.

This is where the paper's Section 3 and 4 modifications live, each behind a
configuration switch so that the Section 5.3 toggle matrix can be measured:

* **fixed DMA buffers in IO Channel Memory** vs system memory
  (``use_io_channel_memory``);
* **packet priority within the driver** -- CTMSP packets queue ahead of ARP
  and IP (``ctmsp_priority_queueing``);
* **Token Ring media priority** for CTMSP frames (``ctmsp_ring_priority``);
* **the CTMSP split point** -- "Adding code to the split point of ARP and IP
  packets in order to split out the CTMSP packets and correctly handle
  them": a registered classifier decides, while the packet is in (or just
  out of) the fixed DMA buffer, whether it is delivered directly to the sink
  device driver;
* the receive-side copy policy: copy header+data into mbufs before
  classification (the stock discipline, what Test Cases A and B ran) vs
  examining the packet while still in the fixed DMA buffer (the paper's
  listed alternative).

The transmit path keeps the paper's single fixed transmit DMA buffer: a
packet occupies it from the start of the copy until the transmit-complete
interrupt, which is exactly the head-of-line blocking that produces the
second mode of Figure 5-2 when foreign traffic shares the driver.

All driver entry points are generators executed inside the calling CPU frame
(a VCA interrupt handler, the transmit-complete handler, or a user-context
protocol path) so that every microsecond is charged to the right context.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.hardware import calibration
from repro.hardware.cpu import Exec, RaiseSpl, SetSpl
from repro.hardware.memory import Region
from repro.hardware.token_ring_adapter import TokenRingAdapter
from repro.ring.frames import Frame
from repro.sim.units import US
from repro.unix.copy import cpu_copy_at_rate
from repro.unix.kernel import Kernel
from repro.unix.mbuf import MbufChain, MbufExhausted

#: Measurement point names (Section 5.2): P3 fires "immediately after the
#: packet is copied into the fixed DMA buffer and immediately before the
#: Token Ring adapter is given the *transmit* command"; P4 "immediately
#: after the received packet is determined to be a CTMSP packet".
PROBE_PRE_TRANSMIT = "p3"
PROBE_RX_CLASSIFIED = "p4"

#: A probe callback: fn(frame) -> extra CPU ns to charge inline (or None).
ProbeFn = Callable[[Frame], Optional[int]]

#: Protocol tag of CTMS session-control frames (setup request/ack).  They
#: ride the same split point as CTMSP data but dispatch to the driver's
#: ``control_input`` hook instead of the sink handles.
CTMS_CONTROL_PROTOCOL = "ctms-ctl"

#: Exec ops are immutable (only ``work_ns`` is read), so the fixed per-packet
#: costs share module-level instances instead of allocating one per packet.
_EXEC_TX_CODE = Exec(calibration.TR_DRIVER_TX_CODE)
_EXEC_PTR_PASS = Exec(20 * US)
_EXEC_TX_COMPLETE = Exec(30 * US)
_EXEC_PURGE = Exec(40 * US)
_EXEC_RX_CODE = Exec(calibration.TR_DRIVER_RX_CODE)
_EXEC_RX_CLASSIFY = Exec(calibration.TR_DRIVER_RX_CLASSIFY_CODE)


@dataclass
class TokenRingDriverConfig:
    """The Section 5.3 toggle matrix, transmit and receive sides."""

    #: Fixed DMA buffers in IO Channel Memory (True) or system memory.
    use_io_channel_memory: bool = True
    #: CTMSP packets queue ahead of ARP/IP inside the driver.
    ctmsp_priority_queueing: bool = True
    #: Token Ring media priority used for CTMSP frames (0 disables).
    ctmsp_ring_priority: int = 4
    #: Transmitter copies only the header into the fixed DMA buffer (the
    #: Section 5.3 variant where the data is already resident there) rather
    #: than header and data.
    tx_copy_header_only: bool = False
    #: Receiver copies header+data from the fixed DMA buffer into mbufs
    #: before classification (stock discipline); False examines the packet
    #: in place.
    rx_copy_to_mbufs: bool = True
    #: Host receive DMA buffers.
    rx_buffer_count: int = 2
    #: Enable the hypothetical Ring-Purge retransmission (Section 4).
    purge_retransmit: bool = False


@dataclass(slots=True)
class _TxJob:
    chain: Optional[MbufChain]
    frame: Frame
    enqueued_at: int


class TokenRingDriver:
    """One machine's Token Ring driver."""

    def __init__(
        self,
        kernel: Kernel,
        adapter: TokenRingAdapter,
        config: Optional[TokenRingDriverConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.cpu = kernel.cpu
        self.adapter = adapter
        self.config = config or TokenRingDriverConfig()
        if (
            self.config.use_io_channel_memory
            and not kernel.machine.memory.has_io_channel_memory
        ):
            raise ValueError(
                "driver configured for IO Channel Memory on a machine "
                "without the card"
            )
        self.buffer_region = (
            Region.IO_CHANNEL
            if self.config.use_io_channel_memory
            else Region.SYSTEM
        )
        adapter.rx_buffer_region = self.buffer_region
        adapter.on_tx_complete = self._tx_complete_handler
        adapter.on_rx_frame = self._rx_handler
        adapter.purge_interrupt_mode = self.config.purge_retransmit
        if self.config.purge_retransmit:
            adapter.on_purge_detected = self._purge_handler

        self._ctmsp_q: deque[_TxJob] = deque()
        self._llc_q: deque[_TxJob] = deque()
        self._tx_busy = False
        #: Frame currently occupying the fixed transmit DMA buffer.
        self._tx_current: Optional[Frame] = None

        #: Receive upcall for non-CTMSP LLC traffic, installed by the
        #: protocol stack: fn(frame, chain) -> generator.
        self.llc_input: Optional[
            Callable[[Frame, Optional[MbufChain]], Generator]
        ] = None
        #: CTMSP direct-delivery handles, installed via the VCA driver's
        #: ioctls (Section 2's function-handle exchange).  A host may serve
        #: several sink devices -- the CTMSP header's destination device
        #: number exists precisely so the split point can demultiplex --
        #: so handles are a list tried in registration order.
        self._ctms_sinks: list[
            tuple[
                Callable[[Frame], bool],
                Callable[[Frame, Region, Optional[MbufChain]], Generator],
            ]
        ] = []

        #: CTMS control-frame upcall, installed by
        #: :class:`repro.core.session.CTMSSession`: a generator handler run
        #: inside the receive interrupt frame (it may transmit a reply via
        #: :meth:`output` but must not Wait).
        self.control_input: Optional[Callable[[Frame], Generator]] = None

        self.probes: dict[str, list[ProbeFn]] = {}

        # Memoized per-size Exec ops for the per-packet fixed costs (Exec is
        # immutable, so frames of the same size share one instance): DMA-
        # buffer copies by byte count, mbuf-allocation charges by chain size.
        self._txcopy_execs: dict[int, Exec] = {}
        self._rxcopy_execs: dict[int, Exec] = {}
        self._alloc_execs: dict[int, Exec] = {}

        # --- statistics ---
        self.stats_tx_packets = 0
        self.stats_tx_queue_peak = 0
        self.stats_rx_ctmsp = 0
        self.stats_rx_llc = 0
        self.stats_rx_control = 0
        self.stats_rx_control_unclaimed = 0
        self.stats_rx_dropped_no_mbufs = 0
        self.stats_rx_ctmsp_unclaimed = 0
        self.stats_retransmits = 0

    # ------------------------------------------------------------------
    # probes (measurement instrumentation)
    # ------------------------------------------------------------------
    def add_probe(self, point: str, fn: ProbeFn) -> None:
        """Attach a measurement probe at ``point`` (p3 or p4)."""
        self.probes.setdefault(point, []).append(fn)

    def _fire_probe(self, point: str, frame: Frame) -> Generator:
        for fn in self.probes.get(point, ()):
            extra = fn(frame)
            if extra:
                yield Exec(extra)

    # ------------------------------------------------------------------
    # header computation
    # ------------------------------------------------------------------
    def compute_header_cost(self) -> int:
        """CPU cost of computing a Token Ring header (charged by callers).

        IP pays this per packet ("IP requests the Token Ring header be
        recomputed for each packet transmitted"); CTMSP pays it once per
        connection.
        """
        return calibration.TR_HEADER_COMPUTE_COST

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def output(self, chain: Optional[MbufChain], frame: Frame) -> Generator:
        """Queue a packet for transmission (``yield from`` in caller frame).

        ``chain`` is the mbuf chain holding the information field; it is
        freed once copied into the fixed DMA buffer.  CTMSP frames go to the
        priority queue when ``ctmsp_priority_queueing`` is on.
        """
        old = yield RaiseSpl(calibration.SPL_NET)
        job = _TxJob(chain, frame, self.sim.now)
        # Session-control frames (setup request/ack) ride the CTMSP queue:
        # they already carry the CTMSP ring priority on the wire, and host
        # queueing must match or a standing media backlog starves connection
        # setup behind hundreds of milliseconds of data frames.
        is_ctms = frame.protocol in ("ctmsp", CTMS_CONTROL_PROTOCOL)
        if is_ctms and self.config.ctmsp_priority_queueing:
            self._ctmsp_q.append(job)
        else:
            self._llc_q.append(job)
        depth = len(self._ctmsp_q) + len(self._llc_q)
        if depth > self.stats_tx_queue_peak:
            self.stats_tx_queue_peak = depth
        if not self._tx_busy:
            yield from self._start_next_tx()
        yield SetSpl(old)

    def _start_next_tx(self) -> Generator:
        """Copy the next queued packet into the fixed DMA buffer and send it.

        Runs inside whatever frame noticed the buffer free (the enqueuer or
        the transmit-complete handler) -- this is why, during catch-up, the
        copies themselves appear in the point-2-to-point-3 interval of later
        packets (Figure 5-2's second mode).
        """
        job = self._dequeue()
        if job is None:
            return
        self._tx_busy = True
        self._tx_current = job.frame
        yield _EXEC_TX_CODE
        if job.chain is None:
            # Pointer-passing transfer (the Section 2 extension): the source
            # driver staged the data in a DMA-reachable buffer already; the
            # drivers exchange buffer pointers instead of copying.
            yield _EXEC_PTR_PASS
        else:
            copy_bytes = (
                min(32, job.frame.info_bytes)
                if self.config.tx_copy_header_only
                else job.frame.info_bytes
            )
            # Fixed DMA buffers are mapped uncached, so this copy costs the
            # paper's 1 us/byte whichever memory region holds the buffer.
            if copy_bytes:
                self.kernel.ledger.record_cpu(
                    Region.SYSTEM, self.buffer_region, copy_bytes
                )
                ex = self._txcopy_execs.get(copy_bytes)
                if ex is None:
                    ex = self._txcopy_execs[copy_bytes] = Exec(
                        calibration.CPU_COPY_SYS_TO_IOCM_NS_PER_BYTE
                        * copy_bytes
                    )
                yield ex
            job.chain.free()
            job.chain = None
        if self.probes:
            yield from self._fire_probe(PROBE_PRE_TRANSMIT, job.frame)
        self.stats_tx_packets += 1
        self.adapter.command_transmit(job.frame, self.buffer_region)

    def _dequeue(self) -> Optional[_TxJob]:
        if self._ctmsp_q:
            return self._ctmsp_q.popleft()
        if self._llc_q:
            return self._llc_q.popleft()
        return None

    def _tx_complete_handler(self) -> Generator:
        """Transmit-complete interrupt: free the buffer, start the next."""
        yield _EXEC_TX_COMPLETE
        old = yield RaiseSpl(calibration.SPL_NET)
        self._tx_busy = False
        self._tx_current = None
        yield from self._start_next_tx()
        yield SetSpl(old)

    def _purge_handler(self) -> Generator:
        """Hypothetical purge interrupt: retransmit from the fixed buffer.

        Section 4: "the transmitter can attempt to correct for a possible
        lost packet by retransmitting the last packet that is still in the
        fixed DMA buffer.  The receiver, in this case, might need to ignore
        a duplicate packet."  The data is still in the buffer, so no copy is
        paid -- only the command reissue.
        """
        yield _EXEC_PURGE
        old = yield RaiseSpl(calibration.SPL_NET)
        frame = self._tx_current
        if frame is not None:
            self.stats_retransmits += 1
            self.adapter.command_transmit(frame, self.buffer_region)
        else:
            self._tx_busy = False
            yield from self._start_next_tx()
        yield SetSpl(old)

    @property
    def tx_queue_depth(self) -> int:
        return len(self._ctmsp_q) + len(self._llc_q) + (1 if self._tx_busy else 0)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def register_ctms_sink(
        self,
        classify: Callable[[Frame], bool],
        deliver: Callable[[Frame, Region, Optional[MbufChain]], Generator],
    ) -> None:
        """Install direct-delivery handles (the paper's new ioctls).

        ``classify`` is the function that "returns true when the packet
        should be directly transferred to the device"; ``deliver`` is the
        sink driver's receive function.  May be called once per sink device
        on this host; the split point tries classifiers in registration
        order.
        """
        self._ctms_sinks.append((classify, deliver))

    @property
    def ctms_deliver(self):
        """First registered deliver handle (compatibility accessor)."""
        return self._ctms_sinks[0][1] if self._ctms_sinks else None

    @ctms_deliver.setter
    def ctms_deliver(self, fn) -> None:
        # Used by PresentationMachine to wrap the delivery path.
        if not self._ctms_sinks:
            raise ValueError("no sink registered to wrap")
        classify, _old = self._ctms_sinks[0]
        self._ctms_sinks[0] = (classify, fn)

    def _match_sink(self, frame: Frame):
        for classify, deliver in self._ctms_sinks:
            if classify(frame):
                return deliver
        return None

    def _rx_handler(self, frame: Frame, region: Region) -> Generator:
        """Receive interrupt: classify at the ARP/IP/CTMSP split point."""
        yield _EXEC_RX_CODE
        if frame.protocol == "ctmsp":
            yield from self._rx_ctmsp(frame, region)
        elif frame.protocol == CTMS_CONTROL_PROTOCOL:
            yield from self._rx_control(frame)
        else:
            yield from self._rx_llc(frame, region)

    def _rx_control(self, frame: Frame) -> Generator:
        """CTMS session-control frame: same split point, tiny classify cost."""
        self.stats_rx_control += 1
        yield _EXEC_RX_CLASSIFY
        handler = self.control_input
        self.adapter.release_rx_buffer()
        if handler is None:
            self.stats_rx_control_unclaimed += 1
            return
        yield from handler(frame)

    def _rx_ctmsp(self, frame: Frame, region: Region) -> Generator:
        self.stats_rx_ctmsp += 1
        # Classification peeks at the header while the packet is still in
        # the fixed DMA buffer -- "the shortest possible test to determine
        # if the packet was an CTMSP packet"; measurement point 4 fires
        # immediately after it, before any copy.
        yield _EXEC_RX_CLASSIFY
        deliver = self._match_sink(frame)
        if self.probes:
            yield from self._fire_probe(PROBE_RX_CLASSIFIED, frame)
        if deliver is None:
            self.stats_rx_ctmsp_unclaimed += 1
            self.adapter.release_rx_buffer()
            return
        chain: Optional[MbufChain] = None
        residency = region
        if self.config.rx_copy_to_mbufs:
            # "Receiver copies header and data from a fixed DMA buffer into
            # mbufs before passing to the VCA device."
            info_bytes = frame.info_bytes
            try:
                chain = self.kernel.mbufs.try_alloc_chain(info_bytes)
            except MbufExhausted:
                self.stats_rx_dropped_no_mbufs += 1
                self.adapter.release_rx_buffer()
                return
            nbufs = len(chain.mbufs)
            ex = self._alloc_execs.get(nbufs)
            if ex is None:
                ex = self._alloc_execs[nbufs] = Exec(
                    calibration.MBUF_ALLOC_COST * nbufs
                )
            yield ex
            if info_bytes:
                self.kernel.ledger.record_cpu(region, Region.SYSTEM, info_bytes)
                ex = self._rxcopy_execs.get(info_bytes)
                if ex is None:
                    ex = self._rxcopy_execs[info_bytes] = Exec(
                        calibration.CPU_COPY_IOCM_TO_SYS_NS_PER_BYTE
                        * info_bytes
                    )
                yield ex
            residency = Region.SYSTEM
            self.adapter.release_rx_buffer()
            yield from deliver(frame, residency, chain)
        else:
            # "the VCA examining the packet while still in a fixed DMA
            # buffer" -- the sink consumes in place; the buffer is released
            # only afterwards.
            yield from deliver(frame, region, None)
            self.adapter.release_rx_buffer()

    def _rx_llc(self, frame: Frame, region: Region) -> Generator:
        """Stock receive: copy into mbufs, hand to the protocol input path."""
        self.stats_rx_llc += 1
        try:
            chain = self.kernel.mbufs.try_alloc_chain(frame.info_bytes)
        except MbufExhausted:
            self.stats_rx_dropped_no_mbufs += 1
            self.adapter.release_rx_buffer()
            return
        yield Exec(calibration.MBUF_ALLOC_COST * chain.buffer_count)
        yield from cpu_copy_at_rate(
            self.kernel.ledger, region, Region.SYSTEM, frame.info_bytes,
            calibration.CPU_COPY_IOCM_TO_SYS_NS_PER_BYTE,
        )
        self.adapter.release_rx_buffer()
        if self.llc_input is None:
            chain.free()
            return
        # Protocol processing runs as a software interrupt below hardware
        # priority, as in BSD (schednetisr/ipintr).
        handler = self.llc_input

        def softint() -> Generator:
            yield from handler(frame, chain)

        self.cpu.raise_irq(calibration.SPL_SOFTNET, softint, name="softnet")
