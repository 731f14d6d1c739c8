"""The kernel proper: clock, run queue, sleep/wakeup, kernel noise.

Three kernel behaviours shape the paper's measurements:

* the **clock interrupt** (hz=100) drives round-robin scheduling -- the
  reason a stock user-level relay process can be 10+ ms late to its next
  read(), which is fatal at 150 KB/s and harmless at 16 KB/s;
* **sleep/wakeup** -- how a blocked relay process waits for device data;
* **protected code segments** -- kernel housekeeping that runs at raised
  ``spl`` and delays interrupt handlers; the paper measured up to 440 us of
  interrupt-entry variation under load and attributed histogram spread to
  "the execution of protected code segments throughout the kernel".
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.hardware import calibration
from repro.hardware.cpu import Exec, SetSpl, Wait
from repro.hardware.machine import Machine
from repro.sim.engine import Event
from repro.sim.units import SEC, US
from repro.unix.copy import CopyLedger
from repro.unix.mbuf import MbufPool

#: hardclock()'s fixed bookkeeping cost; Exec ops are immutable, so the
#: 100 Hz tick shares one instance instead of allocating per interrupt.
_EXEC_HARDCLOCK = Exec(25 * US)


class Kernel:
    """One machine's UNIX kernel.

    Parameters
    ----------
    machine:
        The hardware it runs on (the kernel registers itself on it).
    multiprogramming:
        False models the paper's "stand alone mode" (Test Case A); True
        models "multiprocessing mode but not heavily loaded" (Test Case B),
        which turns on kernel background activity and more protected code.
    noise_rate_per_sec:
        Protected-section episodes per second of kernel background activity;
        defaults depend on ``multiprogramming``.
    """

    def __init__(
        self,
        machine: Machine,
        multiprogramming: bool = False,
        noise_rate_per_sec: Optional[float] = None,
        mbuf_small: int = 256,
        mbuf_clusters: int = 64,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.multiprogramming = multiprogramming
        machine.kernel = self
        self.mbufs = MbufPool(
            self.sim, small_count=mbuf_small, cluster_count=mbuf_clusters
        )
        self.ledger = CopyLedger()
        self.devices: dict[str, Any] = {}
        self._sleepers: dict[str, list[Event]] = {}
        # Calibrated against Figure 5-3: 20 episodes/s leaves 98% of Test
        # Case A's point-3-to-point-4 samples within 160us of the mean, the
        # paper's exact figure; multiprogramming mode roughly doubles it.
        if noise_rate_per_sec is None:
            noise_rate_per_sec = 45.0 if multiprogramming else 20.0
        self.noise_rate_per_sec = noise_rate_per_sec
        self._noise_rng = machine.rng.get("kernel-noise")
        self._running = False
        self.stats_clock_ticks = 0
        self.stats_noise_sections = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin clock interrupts and background kernel activity."""
        if self._running:
            return
        self._running = True
        self.sim.schedule_fast(calibration.CLOCK_TICK, self._clock_tick)
        if self.noise_rate_per_sec > 0:
            self._schedule_noise()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def _clock_tick(self) -> None:
        self.stats_clock_ticks += 1
        self.cpu.raise_irq(
            calibration.SPL_CLOCK, self._clock_handler, name="clock"
        )
        self.sim.schedule_fast(calibration.CLOCK_TICK, self._clock_tick)

    def _clock_handler(self) -> Generator:
        # hardclock(): timer bookkeeping, then request a resched so the run
        # queue round-robins on the 10ms quantum.
        yield _EXEC_HARDCLOCK
        self.cpu.preempt_base_round_robin()

    # ------------------------------------------------------------------
    # background protected sections ("kernel noise")
    # ------------------------------------------------------------------
    def _schedule_noise(self) -> None:
        gap = self._noise_rng.expovariate(self.noise_rate_per_sec / SEC)
        self.sim.schedule_fast(max(1, round(gap)), self._noise_episode)

    def _noise_episode(self) -> None:
        self.stats_noise_sections += 1
        if self._noise_rng.random() < calibration.LOW_SPL_SECTION_FRACTION:
            # A longer section at network priority: delays Token Ring
            # interrupts (tails of Figures 5-3/5-4) but never the VCA.
            spl = calibration.SPL_NET
            irq_level = calibration.SPL_SOFTNET
            length = min(
                calibration.LOW_SPL_SECTION_MAX,
                max(
                    50 * US,
                    round(
                        self._noise_rng.expovariate(
                            1.0 / calibration.LOW_SPL_SECTION_MEAN
                        )
                    ),
                ),
            )
        else:
            # Short housekeeping at high priority: disk completion
            # processing, TTY silo draining -- bounded so the VCA
            # interrupt-entry variation stays within the paper's 440 us.
            spl = calibration.SPL_HIGH
            irq_level = calibration.SPL_BIO
            length = min(
                calibration.PROTECTED_SECTION_MAX,
                max(
                    5 * US,
                    round(
                        self._noise_rng.expovariate(
                            1.0 / calibration.PROTECTED_SECTION_MEAN
                        )
                    ),
                ),
            )

        self.cpu.raise_irq(irq_level, self._noise_body, "kernel-noise", spl, length)
        self._schedule_noise()

    def _noise_body(self, spl: int, length: int) -> Generator:
        old = yield SetSpl(spl)
        yield Exec(length)
        yield SetSpl(old)

    # ------------------------------------------------------------------
    # sleep / wakeup
    # ------------------------------------------------------------------
    def sleep(self, channel: str) -> Generator[Wait, Any, Any]:
        """``yield from`` helper: block the calling process on ``channel``."""
        ev = self.sim.event(name=f"sleep:{channel}")
        self._sleepers.setdefault(channel, []).append(ev)
        value = yield Wait(ev)
        return value

    def wakeup(self, channel: str, value: Any = None) -> int:
        """Wake every process sleeping on ``channel``; returns count woken."""
        events = self._sleepers.pop(channel, [])
        for ev in events:
            ev.succeed(value)
        return len(events)

    # ------------------------------------------------------------------
    # processes and devices
    # ------------------------------------------------------------------
    def spawn_process(
        self, body: Generator, name: str = "proc"
    ) -> Event:
        """Run ``body`` as a user process (a base-level CPU frame)."""
        return self.cpu.spawn_base(body, name=name)

    def register_device(self, name: str, device: Any) -> Any:
        if name in self.devices:
            raise ValueError(f"device {name!r} already registered")
        self.devices[name] = device
        return device

    def device(self, name: str) -> Any:
        return self.devices[name]
