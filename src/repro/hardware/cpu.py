"""A preemptive CPU with BSD-style interrupt priority levels.

The paper's latency histograms are shaped by three CPU-level mechanisms, all
modeled here:

* **interrupt priority levels** -- a handler runs with the processor priority
  (``spl``) raised to its device's level; lower-priority interrupts pend until
  the level drops.  The paper's "execution of protected code segments
  throughout the kernel" is exactly code running under a raised ``spl``;
* **preemption** -- an eligible interrupt suspends whatever is executing,
  including another handler, mid-instruction-stream;
* **memory contention** -- while a DMA engine is transferring into *system*
  memory, CPU execution stretches (the RT/PC arbitration the paper escapes by
  putting fixed DMA buffers in IO Channel Memory).

Behaviours run on the CPU as *frames*: generator coroutines that yield
:class:`Exec` (consume CPU work), :class:`SetSpl` (change processor priority,
returns the previous level), or :class:`Wait` (block on a
:class:`~repro.sim.engine.Event`; base level only).  Interrupt handlers are
frames at level > 0 started by :meth:`CPU.raise_irq`; user processes are
base-level frames scheduled round-robin from a ready queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.hardware import calibration
from repro.sim.engine import Event, Handle, SimulationError, Simulator

#: Frame lifecycle states.
FRESH = "fresh"
RUNNING = "running"
READY = "ready"
PREEMPTED = "preempted"
WAITING = "waiting"
SWITCHING = "switching"
DONE = "done"


class Exec:
    """Yield from a frame: execute ``work_ns`` of CPU work (preemptible)."""

    __slots__ = ("work_ns",)

    def __init__(self, work_ns: int) -> None:
        self.work_ns = work_ns


class SetSpl:
    """Yield from a frame: set the processor priority level.

    The frame receives the *previous* level as the yield's value, enabling
    the classic ``s = splimp(); ...; splx(s)`` idiom.
    """

    __slots__ = ("level",)

    def __init__(self, level: int) -> None:
        self.level = level


class RaiseSpl:
    """Yield from a frame: raise spl to at least ``level`` (never lowers).

    This is the semantics of the BSD ``spl*()`` functions: a handler already
    running at a higher level keeps it.  Returns the previous level for the
    matching ``SetSpl`` restore.
    """

    __slots__ = ("level",)

    def __init__(self, level: int) -> None:
        self.level = level


class Wait:
    """Yield from a frame: block until ``event`` fires (base level only)."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Frame:
    """One behaviour executing on the CPU."""

    __slots__ = (
        "gen",
        "level",
        "name",
        "state",
        "remaining",
        "exec_started",
        "exec_factor",
        "executing",
        "epoch",
        "resume_value",
        "saved_spl",
        "done_event",
    )

    def __init__(
        self,
        gen: Generator[Any, Any, Any],
        level: int,
        name: str,
        done_event: Optional[Event],
    ) -> None:
        self.gen = gen
        self.level = level
        self.name = name
        self.state = FRESH
        #: CPU work (ns, at factor 1.0) left in the current Exec.
        self.remaining: float = 0.0
        self.exec_started: int = 0
        self.exec_factor: float = 1.0
        #: True while a completion entry for this frame is live on the
        #: calendar.  Pausing bumps ``epoch`` instead of cancelling: the
        #: stale entry still fires but identifies itself as outdated and
        #: returns -- logical cancellation without allocating a Handle per
        #: Exec on the hottest scheduling path in the tree.
        self.executing = False
        self.epoch = 0
        #: Value to send into the generator on next resume.
        self.resume_value: Any = None
        #: spl to restore when this interrupt frame exits.
        self.saved_spl: int = 0
        self.done_event = done_event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.name} lvl={self.level} {self.state}>"


class CPU:
    """The processor of one machine.

    Parameters
    ----------
    sim:
        The shared simulator.
    name:
        Used in error messages and traces.
    irq_entry_overhead:
        Work charged before an interrupt handler's first instruction
        (vectoring and register save).
    context_switch_cost:
        Dead time charged when dispatching a different base-level frame.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        irq_entry_overhead: int = calibration.IRQ_ENTRY_OVERHEAD,
        context_switch_cost: int = calibration.CONTEXT_SWITCH_COST,
    ) -> None:
        self.sim = sim
        self.name = name
        self.irq_entry_overhead = irq_entry_overhead
        self.context_switch_cost = context_switch_cost

        #: Global processor priority; IRQs at level <= spl pend.
        self.spl = 0
        #: Stack of interrupt frames, bottom to top; top is running/paused.
        self._istack: list[Frame] = []
        #: Currently dispatched base-level frame (running or preempted).
        self._base: Optional[Frame] = None
        #: Base-level frames awaiting dispatch.
        self.ready: deque[Frame] = deque()
        #: Pending (masked) interrupts: (level, seq, frame) -- dispatched
        #: highest level first, FIFO within a level.
        self._pending: list[tuple[int, int, Frame]] = []
        self._pending_seq = 0
        #: Set by the clock handler to force a round-robin base switch when
        #: the interrupt stack unwinds.
        self.need_resched = False
        #: Number of DMA transfers currently stealing system-memory cycles.
        self._contention_sources = 0
        #: Multiplier applied to Exec durations per contention source.
        self.interference_per_source = (
            calibration.DMA_CPU_INTERFERENCE_PER_TRANSFER
        )

        # --- statistics ---------------------------------------------------
        self.stats_busy_ns = 0
        self.stats_irq_count = 0
        self.stats_irq_pended = 0
        self.stats_context_switches = 0
        self._busy_since: Optional[int] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def running(self) -> Optional[Frame]:
        """The frame currently consuming CPU, if any."""
        if self._istack:
            return self._istack[-1]
        if self._base is not None and self._base.state in (RUNNING, SWITCHING):
            return self._base
        return None

    def raise_irq(
        self,
        level: int,
        handler: Callable[..., Generator[Any, Any, Any]],
        name: str = "irq",
        *args: Any,
    ) -> Frame:
        """Assert an interrupt at ``level``; ``handler(*args)`` builds the frame body.

        The handler runs immediately (after entry overhead) if ``level``
        exceeds both the current spl and the running handler's level;
        otherwise it pends until the mask drops.  Extra positional ``args``
        are passed to the handler factory, so per-interrupt context (a
        received frame, a buffer region) needs no closure allocation.
        """
        if level <= 0:
            raise SimulationError("interrupt level must be > 0")
        frame = Frame(handler(*args), level, name, done_event=None)
        frame.remaining = self.irq_entry_overhead
        self.stats_irq_count += 1
        if level > self.spl and not (
            self._istack and level <= self._istack[-1].level
        ):
            self._dispatch_irq(frame)
        else:
            self.stats_irq_pended += 1
            self._pending_seq += 1
            self._pending.append((level, self._pending_seq, frame))
        return frame

    def spawn_base(
        self, gen: Generator[Any, Any, Any], name: str = "proc"
    ) -> Event:
        """Enqueue a base-level frame (a user process or kernel thread).

        Returns an event that succeeds with the generator's return value when
        the frame finishes.
        """
        done = self.sim.event(name=f"{name}-done")
        frame = Frame(gen, 0, name, done_event=done)
        frame.state = READY
        self.ready.append(frame)
        self._maybe_dispatch_base()
        return done

    def preempt_base_round_robin(self) -> None:
        """Request a base-level switch at the next return to base level.

        Called by the clock-tick handler to implement the scheduler quantum.
        """
        if self.ready:
            self.need_resched = True

    # --- contention hooks (called by DMA engines) -----------------------
    def contention_started(self) -> None:
        """A DMA transfer into system memory began; stretch CPU execution."""
        self._contention_sources += 1
        self._reslice_running()

    def contention_ended(self) -> None:
        """A system-memory DMA transfer finished."""
        if self._contention_sources <= 0:
            raise SimulationError("contention_ended without matching start")
        self._contention_sources -= 1
        self._reslice_running()

    # ------------------------------------------------------------------
    # frame execution engine
    # ------------------------------------------------------------------
    def _irq_eligible(self, level: int) -> bool:
        if level <= self.spl:
            return False
        if self._istack and level <= self._istack[-1].level:
            return False
        return True

    def _dispatch_irq(self, frame: Frame) -> None:
        current = self.running
        if current is not None and current.state == RUNNING:
            self._pause_exec(current)
            current.state = PREEMPTED
        elif self._base is not None and self._base.state == SWITCHING:
            # A context switch in progress is simply stretched; the switch
            # timer keeps running underneath the handler.
            pass
        frame.saved_spl = self.spl
        if frame.level > self.spl:
            self.spl = frame.level
        self._istack.append(frame)
        frame.state = RUNNING
        self._note_busy()
        self._begin_exec(frame)

    def _begin_exec(self, frame: Frame) -> None:
        """Schedule completion of the frame's remaining work, or advance it."""
        if frame.remaining > 0:
            frame.exec_started = self.sim.now
            if self._contention_sources:
                factor = 1.0 + self.interference_per_source * self._contention_sources
                frame.exec_factor = factor
                delay = round(frame.remaining * factor)
            else:
                # Uncontended fast path: factor is exactly 1.0, so the
                # multiply (and the historical max(0, ...) clamp) is a no-op.
                frame.exec_factor = 1.0
                delay = round(frame.remaining)
            frame.executing = True
            self.sim.schedule_fast(delay, self._advance, frame, frame.epoch)
        else:
            self._advance(frame)

    def _pause_exec(self, frame: Frame) -> None:
        if frame.executing:
            elapsed = self.sim.now - frame.exec_started
            frame.remaining = max(
                0.0, frame.remaining - elapsed / frame.exec_factor
            )
            # Logical cancellation: the queued completion entry outlives the
            # pause but its epoch no longer matches.
            frame.epoch += 1
            frame.executing = False

    def _reslice_running(self) -> None:
        frame = self.running
        if frame is not None and frame.executing:
            self._pause_exec(frame)
            self._begin_exec(frame)

    def _advance(self, frame: Frame, epoch: int = -1) -> None:
        """Run generator steps until the frame blocks, executes, or finishes.

        Doubles as the exec-completion callback -- the hottest calendar
        entry in the tree -- in which case ``epoch`` carries the value
        captured when the completion was scheduled.  A pause (preemption,
        contention reslice) bumps ``frame.epoch``, so a stale completion
        identifies itself here and returns: logical cancellation with no
        Handle and no tombstone.  Direct callers leave ``epoch`` at -1.
        """
        if epoch >= 0:
            if epoch != frame.epoch:
                return
            frame.executing = False
            frame.remaining = 0
        # The op classes are final by convention (nothing in the tree
        # subclasses them), so exact type checks replace isinstance here --
        # this dispatch chain runs once per generator step of every frame.
        gen_send = frame.gen.send
        while True:
            try:
                op = gen_send(frame.resume_value)
            except StopIteration as stop:
                self._frame_finished(frame, stop.value)
                return
            frame.resume_value = None

            cls = op.__class__
            if cls is Exec:
                work = op.work_ns
                if work <= 0:
                    continue
                frame.remaining = work
                if self._contention_sources:
                    self._begin_exec(frame)
                else:
                    # Uncontended fresh Exec: the work is already an integer
                    # delay, so skip _begin_exec's factor/round machinery.
                    frame.exec_started = self.sim.now
                    frame.exec_factor = 1.0
                    frame.executing = True
                    self.sim.schedule_fast(
                        work, self._advance, frame, frame.epoch
                    )
                return
            if cls is RaiseSpl:
                old = self.spl
                if op.level > old:
                    self.spl = op.level
                frame.resume_value = old
                continue
            if cls is SetSpl:
                old = self.spl
                self.spl = op.level
                frame.resume_value = old
                if op.level < old and self._dispatch_best_pending(frame):
                    return
                continue
            if cls is Wait or cls is Event:
                event = op.event if cls is Wait else op
                if frame.level > 0:
                    raise SimulationError(
                        f"interrupt handler {frame.name} may not Wait"
                    )
                self._block_base(frame, event)
                return
            raise SimulationError(
                f"frame {frame.name} yielded {op!r}; expected Exec, SetSpl, "
                "Wait or Event"
            )

    def _dispatch_best_pending(self, current: Frame) -> bool:
        """If lowering spl exposed a pended IRQ, run it now.

        Returns True if the current frame was suspended (it will resume when
        the handler stack unwinds).
        """
        if not self._pending:
            return False
        best = self._best_pending_index()
        if best is None:
            return False
        current.state = PREEMPTED
        _level, _seq, frame = self._pending.pop(best)
        self._dispatch_irq(frame)
        return True

    def _best_pending_index(self) -> Optional[int]:
        best_index = None
        best_key: tuple[int, int] = (0, 0)
        for i, (level, seq, _frame) in enumerate(self._pending):
            if not self._irq_eligible(level):
                continue
            key = (level, -seq)
            if best_index is None or key > best_key:
                best_index, best_key = i, key
        return best_index

    def _frame_finished(self, frame: Frame, value: Any) -> None:
        frame.state = DONE
        if frame.done_event is not None:
            frame.done_event.succeed(value)
        if frame.level > 0:
            top = self._istack.pop()
            if top is not frame:  # pragma: no cover - invariant
                raise SimulationError("interrupt stack corrupted")
            self.spl = frame.saved_spl
            self._after_unwind()
        else:
            if self._base is not frame:  # pragma: no cover - invariant
                raise SimulationError("base frame bookkeeping corrupted")
            self._base = None
            self._maybe_dispatch_base()

    def _after_unwind(self) -> None:
        """An interrupt frame exited: run pended IRQs, then resume below."""
        if self._pending:
            best = self._best_pending_index()
            if best is not None:
                _level, _seq, frame = self._pending.pop(best)
                self._dispatch_irq(frame)
                return
        if self._istack:
            below = self._istack[-1]
            below.state = RUNNING
            self._begin_exec(below)
            return
        self._return_to_base()

    def _return_to_base(self) -> None:
        if self._base is not None and self._base.state == PREEMPTED:
            if self.need_resched and self.ready:
                self.need_resched = False
                self._base.state = READY
                self.ready.append(self._base)
                self._base = None
                self._maybe_dispatch_base()
                return
            self._base.state = RUNNING
            self._begin_exec(self._base)
            return
        if self._base is None:
            self._maybe_dispatch_base()
        else:
            self._note_idle_check()

    def _block_base(self, frame: Frame, event: Event) -> None:
        frame.state = WAITING

        def on_fire(ev: Event) -> None:
            if frame.state != WAITING:
                return
            if not ev.ok:
                raise SimulationError(
                    f"event waited on by {frame.name} failed: {ev.value!r}"
                )
            frame.resume_value = ev.value
            frame.state = READY
            self.ready.append(frame)
            self._maybe_dispatch_base()

        event.add_callback(on_fire)
        self._base = None
        self._maybe_dispatch_base()

    def _maybe_dispatch_base(self) -> None:
        if self._base is not None or self._istack:
            self._note_idle_check()
            return
        if not self.ready:
            self._note_idle_check()
            return
        frame = self.ready.popleft()
        self._base = frame
        self.stats_context_switches += 1
        self._note_busy()
        if self.context_switch_cost > 0:
            frame.state = SWITCHING
            # Never cancelled: an interrupt during the switch is resolved by
            # the SWITCHING/PREEMPTED state machine in _finish_switch.
            self.sim.schedule_fast(
                self.context_switch_cost, self._finish_switch, frame
            )
        else:
            frame.state = RUNNING
            self._begin_exec(frame)

    def _finish_switch(self, frame: Frame) -> None:
        if self._istack:
            # An interrupt arrived during the switch; complete the switch
            # when the stack unwinds (frame stays PREEMPTED).
            frame.state = PREEMPTED
            return
        frame.state = RUNNING
        self._begin_exec(frame)

    # ------------------------------------------------------------------
    # busy-time statistics
    # ------------------------------------------------------------------
    def _note_busy(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.sim.now

    def _note_idle_check(self) -> None:
        if (
            self._busy_since is not None
            and not self._istack
            and (self._base is None or self._base.state == WAITING)
            and not self.ready
        ):
            self.stats_busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the CPU spent busy."""
        busy = self.stats_busy_ns
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / elapsed_ns if elapsed_ns else 0.0
