"""The IBM Voice Communications Adapter (VCA).

Section 5.1: the VCA has a TI32010 DSP and 2K x 16 bits of memory that is
byte-accessible by the host; it can interrupt the host and be interrupted by
it.  The paper programs the DSP to interrupt the host every 12 milliseconds
and uses the card purely as a rock-stable interrupt and data source; the
logic analyzer found the period stable to about 500 ns.

The model reproduces exactly that: a programmable periodic interrupt with
sub-microsecond jitter, an on-card buffer (ADAPTER region, byte-wide host
access), and an IRQ line observable by measurement instruments (the paper
physically probed this line with both the logic analyzer and the PC/AT
timestamper).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.hardware import calibration
from repro.hardware.memory import MemoryRegion, Region
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class VoiceCommunicationsAdapter:
    """The VCA card in one machine.

    The host-side driver registers ``handler_factory`` (a generator factory
    run as a CPU interrupt frame) and starts/stops the DSP timer program.
    ``irq_listeners`` observe the raw IRQ line: they are called at the exact
    electrical instant the line pulses, before any software runs -- this is
    measurement point 1 of Section 5.2.
    """

    #: On-card memory: 2K x 16 bits.
    BUFFER_BYTES = 4096

    def __init__(
        self,
        sim: Simulator,
        cpu_raise_irq: Callable[..., object],
        rng: RandomStreams,
        name: str = "vca",
        period: int = calibration.VCA_INTERRUPT_PERIOD,
        jitter: int = calibration.VCA_INTERRUPT_JITTER,
        irq_level: int = calibration.SPL_VCA,
    ) -> None:
        self.sim = sim
        self.name = name
        self.period = period
        self.jitter = jitter
        self.irq_level = irq_level
        self._raise_irq = cpu_raise_irq
        self._rng = rng.get(f"{name}.timer")
        self.buffer = MemoryRegion(
            f"{name}.buffer", Region.ADAPTER, self.BUFFER_BYTES, owner=name
        )
        self.handler_factory: Optional[Callable[[], Generator]] = None
        self.irq_listeners: list[Callable[[int], None]] = []
        self._running = False
        #: Logical-cancellation counter for the DSP timer: ``stop()`` bumps
        #: it, so a queued tick identifies itself as stale instead of
        #: carrying a cancellable Handle (allocation-free tier).
        self._timer_epoch = 0
        self._tick_count = 0
        #: Epoch origin of the DSP timer program.  0 for a timer started at
        #: boot (every historical caller); a timer restarted mid-run with
        #: ``start(align_to_now=True)`` rebases here so the nominal edges
        #: count forward from the restart instead of replaying every edge
        #: since time zero as an interrupt burst.
        self._origin_ns = 0
        self._irq_name = f"{name}-irq"
        self.stats_interrupts = 0

    # ------------------------------------------------------------------
    # driver-facing controls (wired through ioctls in repro.drivers.vca)
    # ------------------------------------------------------------------
    def attach_handler(self, factory: Callable[[], Generator]) -> None:
        """Install the host interrupt handler body."""
        self.handler_factory = factory

    def start(self, align_to_now: bool = False) -> None:
        """Load the DSP timer program and start the periodic interrupt.

        ``align_to_now`` rebases the nominal tick grid at the current
        simulated instant.  A failover replica starts its DSP mid-run;
        without rebasing, ``nominal = tick * period`` would sit far in the
        past and the timer would spray a catch-up burst of back-to-back
        interrupts.  The default keeps the historical boot-time grid.
        """
        if self._running:
            return
        self._running = True
        self._tick_count = 0
        if align_to_now:
            self._origin_ns = self.sim.now
        self._schedule_next()

    def stop(self) -> None:
        """Halt the DSP timer."""
        self._running = False
        self._timer_epoch += 1

    # ------------------------------------------------------------------
    # timer mechanics
    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        # The DSP counts a crystal-derived period; jitter is a fraction of a
        # microsecond around the nominal edge, never cumulative (the paper's
        # oscilloscope measurement triggered on the previous edge and saw
        # only ~500 ns of variation, i.e. phase noise, not drift).
        self._tick_count += 1
        nominal = self._origin_ns + self._tick_count * self.period
        offset = self._rng.randint(-self.jitter, self.jitter) if self.jitter else 0
        fire_at = max(self.sim.now + 1, nominal + offset)
        self.sim.at_fast(fire_at, self._fire, self._timer_epoch)

    def _fire(self, epoch: int) -> None:
        if epoch != self._timer_epoch or not self._running:
            return
        self.stats_interrupts += 1
        if self.irq_listeners:
            for listener in self.irq_listeners:
                listener(self.sim.now)
        if self.handler_factory is not None:
            self._raise_irq(self.irq_level, self.handler_factory, self._irq_name)
        self._schedule_next()
