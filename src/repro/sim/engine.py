"""The discrete-event engine: simulator, events, coroutine processes.

The design follows the classic event-calendar pattern: a calendar of
``(time, sequence, action)`` entries, a monotonically non-decreasing ``now``,
and two complementary programming models on top:

* **callbacks** -- ``sim.schedule(delay, fn, *args)`` for fire-and-forget
  hardware behaviour (an adapter raising an interrupt line);
* **coroutine processes** -- generators that ``yield`` :class:`Event` objects,
  for behaviours with sequential structure (a driver transmit path, a traffic
  generator loop).

Both models interoperate: a callback can ``succeed()`` an event a process is
waiting on, and a process can schedule callbacks.

The calendar is one binary heap (``heapq``) of plain tuples::

    (time_ns, tiebreak, seq, handle_or_None, fn, args)

``tiebreak`` is ``0`` under the default FIFO policy and a seeded 32-bit draw
under ``tiebreak="random"``; ``seq`` is unique, so the first three fields
totally order every entry and the tail is never compared.

Two scheduling tiers exist.  :meth:`Simulator.schedule` / :meth:`Simulator.at`
return a cancellable :class:`Handle`; :meth:`Simulator.schedule_fast` returns
nothing and allocates nothing beyond the calendar entry itself -- it is the
right call for the dominant fire-and-forget schedules in driver/ring/protocol
inner loops (see ``docs/KERNEL.md``).
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

#: Sentinel bound for run(until=None): beyond any representable sim time.
_FOREVER = 1 << 62

#: Tombstone count below which compaction is never attempted (small queues
#: recycle naturally; compacting them would cost more than it saves).
COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


class ProcessKilled(Exception):
    """Thrown into a process generator when :meth:`Process.kill` is called."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*; exactly one call to :meth:`succeed` (or
    :meth:`fail`) resolves it, after which its callbacks run within the same
    simulated instant.  Waiting on an already-resolved event resumes the
    waiter immediately (still via the calendar, preserving causal ordering).
    """

    __slots__ = ("sim", "_callbacks", "_ok", "value", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._ok: Optional[bool] = None
        self.value: Any = None

    @property
    def triggered(self) -> bool:
        """True once the event has been resolved (succeeded or failed)."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event resolves (immediately if it has)."""
        if self._callbacks is None:
            self.sim.schedule_fast(0, fn, self)
        else:
            self._callbacks.append(fn)

    def discard_callback(self, fn: Callable[["Event"], None]) -> None:
        """Stop ``fn`` from running when the event resolves (if still pending).

        A no-op when the event already resolved or ``fn`` was never attached.
        Combinators (:meth:`Simulator.any_of`) use this to detach themselves
        from losing events so a long-pending loser does not keep the combined
        event -- and everything reachable from its callbacks -- alive.
        """
        callbacks = self._callbacks
        if callbacks is not None:
            try:
                callbacks.remove(fn)
            except ValueError:
                pass

    def succeed(self, value: Any = None) -> "Event":
        """Resolve the event successfully, waking all waiters."""
        self._resolve(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Resolve the event with an exception; waiting processes see a raise."""
        self._resolve(False, exception)
        return self

    def _resolve(self, ok: bool, value: Any) -> None:
        if self._ok is not None:
            raise SimulationError(f"event {self.name or id(self)} resolved twice")
        self._ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        schedule_fast = self.sim.schedule_fast
        for fn in callbacks:
            schedule_fast(0, fn, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<Event {self.name or hex(id(self))} {state}>"


class Handle:
    """A cancellable scheduled callback returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: int, sim: "Simulator") -> None:
        self.time = time
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (a no-op if it already ran)."""
        if not self.cancelled:
            self.cancelled = True
            # Tombstone accounting: the entry stays queued until popped or
            # compacted away; the simulator decides when skips outweigh work.
            self._sim._note_cancel()


class Process(Event):
    """A coroutine behaviour: a generator that yields :class:`Event` objects.

    The process is itself an :class:`Event` that succeeds with the
    generator's return value, so processes can wait on each other.  Throwing
    :class:`ProcessKilled` into the generator via :meth:`kill` terminates it;
    a killed process *fails* with the :class:`ProcessKilled` instance unless
    the generator swallows the exception and returns normally.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        sim.schedule_fast(0, self._step, None)

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if self.triggered:
            return
        self._waiting_on = None
        exc = ProcessKilled(self.name)
        try:
            self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled:
            self.fail(exc)
            return
        # Generator swallowed the kill and yielded again: treat as a bug --
        # a killed behaviour must wind down, not keep scheduling work.
        raise SimulationError(f"process {self.name} ignored kill()")

    def _step(self, fired: Optional[Event]) -> None:
        if self._ok is not None:
            return
        if fired is not None and fired is not self._waiting_on:
            return  # stale wakeup from an event we stopped waiting on
        self._waiting_on = None
        try:
            if fired is not None and not fired.ok:
                target = self._gen.throw(fired.value)
            else:
                target = self._gen.send(fired.value if fired is not None else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes may only "
                "yield Event objects"
            )
        self._waiting_on = target
        target.add_callback(self._step)


class Simulator:
    """The event calendar.

    ``now`` is the current simulated time in nanoseconds.  All mutation of
    simulated state must happen from inside a scheduled callback or process
    step; the calendar guarantees callbacks run in (time, FIFO) order.

    **Tombstones.**  Cancelling a :class:`Handle` does not remove its entry;
    the dispatch loop skips it when popped.  Cancellation-heavy models (CPU
    preemption cancels in-flight completions constantly) would bloat the
    heap, so the simulator counts live tombstones and compacts -- rebuilds
    the heap without cancelled entries -- once they outnumber live work.

    **Tie-break sanitizer.**  Events scheduled at the *same* instant are
    logically concurrent: a model whose end state depends on their FIFO
    order has a scheduler-order race that FIFO determinism merely hides.
    Constructing the simulator with ``tiebreak="random"`` replaces the FIFO
    tie-break with a seeded pseudo-random one (causality is preserved -- an
    entry scheduled *during* this instant still runs after its cause), so
    re-running a model under a few tie-break seeds and comparing end states
    flushes such races out.  :func:`repro.sim.sanitizer.check_tiebreak_invariance`
    wraps that recipe.

    ``record_trace=True`` appends a ``(time_ns, callable-qualname)`` tuple
    to :attr:`trace` for every executed calendar entry, giving tests a
    cheap fingerprint of the exact event order.
    """

    #: Recognised tie-break policies.
    TIEBREAKS = ("fifo", "random")

    def __init__(
        self,
        tiebreak: str = "fifo",
        tiebreak_seed: int = 0,
        record_trace: bool = False,
    ) -> None:
        if tiebreak not in self.TIEBREAKS:
            raise SimulationError(
                f"unknown tiebreak {tiebreak!r}; expected one of {self.TIEBREAKS}"
            )
        self.now: int = 0
        self.tiebreak = tiebreak
        self.trace: list[tuple[int, str]] = []
        self._record_trace = record_trace
        self._tiebreak_rng: Optional[random.Random] = (
            random.Random(tiebreak_seed) if tiebreak == "random" else None
        )
        #: The calendar: a binary heap of entries (layout in the module doc).
        self._queue: list[tuple] = []
        #: Entries pushed so far; the unique last key of every entry.
        self._seq = 0
        #: Cancelled entries not yet popped or compacted away (a cancel after
        #: the entry ran still counts, so this may overestimate).
        self._tombstones = 0
        self._running = False
        #: Calendar entries dispatched so far (cancelled entries excluded).
        #: Campaign points report it as their ``events`` and perfbench's
        #: ``sim.ns_per_event`` divides host time by it.  Updated in bulk
        #: when :meth:`run` returns; mid-callback readers (none exist
        #: today) would see the pre-run value.
        self.stats_events = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds (cancellable)."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past ({delay_ns}ns)")
        time_ns = self.now + delay_ns
        handle = Handle(time_ns, self)
        rng = self._tiebreak_rng
        self._seq += 1
        heappush(self._queue, (
            time_ns, 0 if rng is None else rng.getrandbits(32), self._seq,
            handle, fn, args,
        ))
        return handle

    def schedule_fast(self, delay_ns: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds, non-cancellable.

        The allocation-free tier: no :class:`Handle` is created, so inner
        loops that never cancel (driver transmit chains, ring rotation,
        clock ticks, event resolution) pay only for the calendar entry.
        Ordering is identical to :meth:`schedule` -- the same sequence
        number and tie-break jitter are drawn.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past ({delay_ns}ns)")
        rng = self._tiebreak_rng
        self._seq += 1
        heappush(self._queue, (
            self.now + delay_ns, 0 if rng is None else rng.getrandbits(32),
            self._seq, None, fn, args,
        ))

    def at(self, time_ns: int, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` at absolute simulated time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self.now}ns"
            )
        handle = Handle(time_ns, self)
        rng = self._tiebreak_rng
        self._seq += 1
        heappush(self._queue, (
            time_ns, 0 if rng is None else rng.getrandbits(32), self._seq,
            handle, fn, args,
        ))
        return handle

    def at_fast(self, time_ns: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``time_ns``, non-cancellable.

        The absolute-time twin of :meth:`schedule_fast`: no :class:`Handle`,
        so callers that cancel logically (an epoch counter checked by the
        callback, as the ring layer does) skip the per-entry allocation.
        """
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self.now}ns"
            )
        rng = self._tiebreak_rng
        self._seq += 1
        heappush(self._queue, (
            time_ns, 0 if rng is None else rng.getrandbits(32), self._seq,
            None, fn, args,
        ))

    # -- tombstone accounting ------------------------------------------
    def _note_cancel(self) -> None:
        self._tombstones += 1
        if (
            self._tombstones > COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._queue)
        ):
            # In place: run() holds the list in a local across callbacks.
            queue = self._queue
            queue[:] = [e for e in queue if e[3] is None or not e[3].cancelled]
            heapify(queue)
            self._tombstones = 0

    def _note_tombstone_popped(self) -> None:
        if self._tombstones > 0:
            self._tombstones -= 1

    def event(self, name: str = "") -> Event:
        """Create a pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay_ns: int, value: Any = None, name: str = "") -> Event:
        """An event that succeeds ``delay_ns`` from now.

        The event is unnamed by default -- naming every timeout turned out
        to be a measurable hot-path allocation (an f-string per call); pass
        ``name=`` where a debuggable label is worth it.
        """
        ev = Event(self, name=name)
        self.schedule_fast(delay_ns, ev.succeed, value)
        return ev

    def process(
        self, gen: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a coroutine process (begins running at the current instant)."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when the first of ``events`` succeeds.

        The value is the ``(event, value)`` pair of the first to resolve.
        Once the combined event resolves, the watcher detaches from the
        still-pending losers, so they stop referencing it.
        """
        events = list(events)
        combined = self.event(name="any_of")

        def on_fire(ev: Event) -> None:
            if not combined.triggered:
                for other in events:
                    if other is not ev:
                        other.discard_callback(on_fire)
                if ev.ok:
                    combined.succeed((ev, ev.value))
                else:
                    combined.fail(ev.value)

        for ev in events:
            ev.add_callback(on_fire)
        return combined

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when all of ``events`` have succeeded."""
        events = list(events)
        combined = self.event(name="all_of")
        remaining = len(events)
        if remaining == 0:
            combined.succeed([])
            return combined
        values: list[Any] = [None] * remaining
        callbacks: list[Callable[[Event], None]] = []

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_fire(ev: Event) -> None:
                nonlocal remaining
                if combined.triggered:
                    return
                if not ev.ok:
                    # One failure resolves the combination; detach from the
                    # events still pending so they stop referencing it.
                    for other, cb in zip(events, callbacks):
                        if other is not ev:
                            other.discard_callback(cb)
                    combined.fail(ev.value)
                    return
                values[index] = ev.value
                remaining -= 1
                if remaining == 0:
                    combined.succeed(values)

            return on_fire

        for i, ev in enumerate(events):
            cb = make_callback(i)
            callbacks.append(cb)
            ev.add_callback(cb)
        return combined

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Process events until the calendar empties or ``now`` reaches ``until``.

        When ``until`` is given, ``now`` is advanced to exactly ``until`` on
        return even if the calendar drained earlier, so back-to-back
        ``run(until=...)`` calls see a continuous clock.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        limit = _FOREVER if until is None else until
        queue = self._queue
        dispatched = 0
        try:
            if self._record_trace:
                self._run_traced(limit)
            else:
                while queue and queue[0][0] <= limit:
                    entry = heappop(queue)
                    handle = entry[3]
                    if handle is not None and handle.cancelled:
                        self._note_tombstone_popped()
                        continue
                    self.now = entry[0]
                    dispatched += 1
                    entry[4](*entry[5])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.stats_events += dispatched
            self._running = False

    def _run_traced(self, limit: int) -> None:
        """The traced twin of the fast dispatch loop."""
        queue = self._queue
        while queue and queue[0][0] <= limit:
            entry = heappop(queue)
            handle = entry[3]
            if handle is not None and handle.cancelled:
                self._note_tombstone_popped()
                continue
            time_ns, fn, args = entry[0], entry[4], entry[5]
            self.now = time_ns
            self.stats_events += 1
            self.trace.append(
                (time_ns, getattr(fn, "__qualname__", repr(fn)))
            )
            fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now}ns queued={len(self._queue)}>"
