"""The Token Ring adapter card.

Models the behaviours Section 4 complains about:

* a microcoded command path with real latency between the host's *transmit*
  command and the first DMA cycle;
* bus-master DMA between the host's fixed DMA buffers and the on-card
  buffer -- stealing CPU memory cycles when those buffers are in system
  memory, and not when they are in IO Channel Memory;
* interrupts to the host for transmit-complete and receive;
* **no Ring Purge indication**: when a purge destroys the frame in flight,
  the adapter reports a normal transmit completion ("the adapter does not
  interrupt the processor with the information that a Ring Purge has
  occurred") -- unless the *hypothetical* ``purge_interrupt_mode`` is
  enabled, modeling the adapter the paper wished it had;
* MAC frames are never passed to the host (they are filtered at the
  station).

The driver (:mod:`repro.drivers.token_ring`) owns buffer placement policy and
all protocol logic; the adapter is dumb hardware.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.hardware import calibration
from repro.hardware.machine import Machine
from repro.hardware.memory import MemorySystem, Region
from repro.ring.frames import Frame
from repro.ring.network import TX_LOST_IN_PURGE, TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import SimulationError
from repro.unix.copy import CopyLedger


class TokenRingAdapter:
    """One Token Ring adapter card in a machine."""

    def __init__(
        self,
        machine: Machine,
        ring: TokenRing,
        address: str,
        ledger: Optional[CopyLedger] = None,
        irq_level: int = calibration.SPL_NET,
        rx_buffer_count: int = 2,
        purge_interrupt_mode: bool = False,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.ring = ring
        self.address = address
        self.ledger = ledger
        self.irq_level = irq_level
        self.purge_interrupt_mode = purge_interrupt_mode
        self.station = RingStation(ring, address, receive=self._on_ring_frame)
        self.tx_dma_ns_per_byte = calibration.TR_ADAPTER_TX_DMA_NS_PER_BYTE
        self.rx_dma_ns_per_byte = calibration.TR_ADAPTER_RX_DMA_NS_PER_BYTE
        self.command_latency = calibration.TR_ADAPTER_CMD_LATENCY

        # Driver wiring: interrupt handler factories (return generators).
        self.on_tx_complete: Optional[Callable[[], Generator]] = None
        self.on_rx_frame: Optional[Callable[[Frame, Region], Generator]] = None
        self.on_purge_detected: Optional[Callable[[], Generator]] = None

        #: Region of the host receive DMA buffers (driver sets at attach).
        self.rx_buffer_region = Region.SYSTEM
        self._rx_buffers_free = rx_buffer_count
        self.rx_buffer_count = rx_buffer_count

        self._tx_in_progress = False
        self._last_tx_frame: Optional[Frame] = None

        # --- fault-injection hooks (set by repro.faults.injectors) ---
        #: Absolute time until which the microcode sits on transmit commands.
        self.fault_tx_stall_until = 0
        #: Extra delay before each receive interrupt (coalescing fault).
        self.fault_rx_delay_ns = 0
        #: Number of upcoming transmit-complete interrupts to swallow.
        self.fault_drop_tx_complete = 0
        #: If > 0, a "dropped" tx-complete is delivered this late instead of
        #: never (a degraded path rather than a wedged one).
        self.fault_drop_tx_complete_delay_ns = 0
        self._fault_rx_seized = 0
        self._fault_rx_active = False

        # --- statistics ---
        self.stats_tx_frames = 0
        self.stats_rx_frames = 0
        self.stats_rx_overruns = 0
        self.stats_tx_lost_in_purge = 0
        self.stats_tx_stalled_ns = 0
        self.stats_tx_complete_dropped = 0
        self.stats_tx_complete_delayed = 0

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def command_transmit(self, frame: Frame, from_region: Region) -> None:
        """Host *transmit* command: fetch the frame by DMA, then send it.

        The driver must not issue a second command until the
        transmit-complete interrupt -- the card has one transmit context
        (matching the paper's single fixed DMA buffer discipline).
        """
        if self._tx_in_progress:
            raise SimulationError(
                f"{self.address}: transmit command while transmit in progress"
            )
        self._tx_in_progress = True
        self._last_tx_frame = frame
        stall = max(0, self.fault_tx_stall_until - self.sim.now)
        self.stats_tx_stalled_ns += stall
        self.sim.schedule_fast(
            stall + self.command_latency, self._fetch_frame, frame, from_region
        )

    def _fetch_frame(self, frame: Frame, from_region: Region) -> None:
        duration = frame.info_bytes * self.tx_dma_ns_per_byte
        if self.ledger is not None:
            self.ledger.record_dma(from_region, Region.ADAPTER, frame.info_bytes)
        contends = MemorySystem.dma_involves_cpu_memory(from_region)
        if contends:
            self.cpu.contention_started()
        self.sim.schedule_fast(duration, self._fetch_done, frame, contends)

    def _fetch_done(self, frame: Frame, contends: bool) -> None:
        if contends:
            self.cpu.contention_ended()
        self.station.transmit(frame, on_complete=self._ring_tx_done)

    def _ring_tx_done(self, frame: Frame, status: str) -> None:
        self._tx_in_progress = False
        self.stats_tx_frames += 1
        if status == TX_LOST_IN_PURGE:
            self.stats_tx_lost_in_purge += 1
            if self.purge_interrupt_mode and self.on_purge_detected is not None:
                # The hypothetical Section 4 adapter: surface the purge so
                # the driver can retransmit from the fixed DMA buffer.
                self.cpu.raise_irq(
                    self.irq_level, self.on_purge_detected, name="tr-purge"
                )
                return
        if self.on_tx_complete is None:
            return
        if self.fault_drop_tx_complete > 0:
            self.fault_drop_tx_complete -= 1
            if self.fault_drop_tx_complete_delay_ns > 0:
                self.stats_tx_complete_delayed += 1
                self.sim.schedule_fast(
                    self.fault_drop_tx_complete_delay_ns,
                    self.cpu.raise_irq,
                    self.irq_level,
                    self.on_tx_complete,
                    "tr-txdone",
                )
            else:
                self.stats_tx_complete_dropped += 1
            return
        self.cpu.raise_irq(
            self.irq_level, self.on_tx_complete, name="tr-txdone"
        )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_ring_frame(self, frame: Frame) -> None:
        if self._rx_buffers_free == 0:
            # The host has not serviced earlier receives; the card overruns.
            self.stats_rx_overruns += 1
            return
        self._rx_buffers_free -= 1
        duration = frame.info_bytes * self.rx_dma_ns_per_byte
        if self.ledger is not None:
            self.ledger.record_dma(
                Region.ADAPTER, self.rx_buffer_region, frame.info_bytes
            )
        contends = MemorySystem.dma_involves_cpu_memory(self.rx_buffer_region)
        if contends:
            self.cpu.contention_started()
        self.sim.schedule_fast(duration, self._rx_dma_done, frame, contends)

    def _rx_dma_done(self, frame: Frame, contends: bool) -> None:
        if contends:
            self.cpu.contention_ended()
        self.stats_rx_frames += 1
        if self.on_rx_frame is None:
            self.release_rx_buffer()
            return
        region = self.rx_buffer_region
        if self.fault_rx_delay_ns > 0:
            # Injected interrupt coalescing: the card holds the completed
            # receive before asserting the interrupt line.
            self.sim.schedule_fast(
                self.fault_rx_delay_ns,
                self.cpu.raise_irq,
                self.irq_level,
                self.on_rx_frame,
                "tr-rx",
                frame,
                region,
            )
            return
        self.cpu.raise_irq(
            self.irq_level, self.on_rx_frame, "tr-rx", frame, region
        )

    def release_rx_buffer(self) -> None:
        """Driver upcall: a host receive DMA buffer is free again."""
        if self._rx_buffers_free + self._fault_rx_seized >= self.rx_buffer_count:
            raise SimulationError("rx buffer release underflow")
        if self._fault_rx_active:
            # An exhaustion fault is active: the freed buffer is captured by
            # the fault instead of returning to the pool.
            self._fault_rx_seized += 1
        else:
            self._rx_buffers_free += 1

    # ------------------------------------------------------------------
    # fault-injection controls (repro.faults.injectors)
    # ------------------------------------------------------------------
    def fault_seize_rx_buffers(self) -> int:
        """Mark every currently-free receive DMA buffer busy (exhaustion).

        Arrivals during the seize window overrun exactly as when the host
        falls behind.  Returns the number of buffers captured now; buffers
        released by the driver while the fault is active are captured too.
        """
        self._fault_rx_active = True
        seized = self._rx_buffers_free
        self._fault_rx_seized += seized
        self._rx_buffers_free = 0
        return seized

    def fault_release_rx_buffers(self) -> None:
        """End an exhaustion fault: captured buffers return to the pool."""
        if not self._fault_rx_active:
            return
        self._fault_rx_active = False
        self._rx_buffers_free += self._fault_rx_seized
        self._fault_rx_seized = 0
