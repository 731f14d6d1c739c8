"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Process, ProcessKilled, SimulationError, Simulator
from repro.sim.units import MS, US


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in "abcd":
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list("abcd")


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    sim.run(until=200)
    assert fired == [1]
    assert sim.now == 200
    sim.run(until=400)
    assert fired == [1, 2]
    assert sim.now == 400


def test_run_until_advances_clock_even_when_empty():
    sim = Simulator()
    sim.run(until=5 * MS)
    assert sim.now == 5 * MS


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_cancelled_handle_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    sim.schedule(20, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_event_succeed_wakes_callbacks_once():
    sim = Simulator()
    got = []
    ev = sim.event("e")
    ev.add_callback(lambda e: got.append(e.value))
    sim.schedule(7, ev.succeed, 42)
    sim.run()
    assert got == [42]
    assert ev.triggered and ev.ok


def test_event_cannot_resolve_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_callback_on_already_triggered_event_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def behaviour():
        trace.append(("start", sim.now))
        yield sim.timeout(10 * US)
        trace.append(("mid", sim.now))
        yield sim.timeout(5 * US)
        trace.append(("end", sim.now))
        return "done"

    proc = sim.process(behaviour())
    sim.run()
    assert trace == [("start", 0), ("mid", 10 * US), ("end", 15 * US)]
    assert proc.triggered and proc.value == "done"


def test_process_receives_event_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    sim.process(waiter())
    sim.schedule(3, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_processes_can_wait_on_processes():
    sim = Simulator()

    def child():
        yield sim.timeout(100)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    proc = sim.process(parent())
    sim.run()
    assert proc.value == 100


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    outcome = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            outcome.append(str(exc))

    sim.process(waiter())
    sim.schedule(1, ev.fail, ValueError("boom"))
    sim.run()
    assert outcome == ["boom"]


def test_kill_process_interrupts_wait():
    sim = Simulator()
    reached_end = []

    def behaviour():
        yield sim.timeout(1 * MS)
        reached_end.append(True)

    proc = sim.process(behaviour())
    sim.run(until=10)
    proc.kill()
    sim.run()
    assert not reached_end
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, ProcessKilled)


def test_killed_process_can_clean_up_and_return():
    sim = Simulator()
    cleanup = []

    def behaviour():
        try:
            yield sim.timeout(1 * MS)
        except ProcessKilled:
            cleanup.append("closed")
        return "graceful"

    proc = sim.process(behaviour())
    sim.run(until=10)
    proc.kill()
    sim.run()
    assert cleanup == ["closed"]
    assert proc.ok and proc.value == "graceful"


def test_process_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 5  # type: ignore[misc]

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_stale_wakeup_after_kill_is_ignored():
    # A timeout that fires after the process was killed must not resume it.
    sim = Simulator()

    def behaviour():
        yield sim.timeout(50)

    proc = sim.process(behaviour())
    sim.run(until=10)
    proc.kill()
    sim.run()  # the 50ns timeout still fires; must not blow up
    assert proc.triggered


def test_any_of_returns_first():
    sim = Simulator()
    a = sim.timeout(20, "a")
    b = sim.timeout(10, "b")
    got = []

    def waiter():
        ev, value = yield sim.any_of([a, b])
        got.append(value)

    sim.process(waiter())
    sim.run()
    assert got == ["b"]


def test_all_of_collects_values_in_order():
    sim = Simulator()
    a = sim.timeout(20, "a")
    b = sim.timeout(10, "b")
    got = []

    def waiter():
        values = yield sim.all_of([a, b])
        got.append(values)

    sim.process(waiter())
    sim.run()
    assert got == [["a", "b"]]
    assert sim.now == 20


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = []

    def waiter():
        values = yield sim.all_of([])
        done.append(values)

    sim.process(waiter())
    sim.run()
    assert done == [[]]


def test_any_of_detaches_from_losers():
    # Regression: losing events used to keep their on_fire callbacks (and
    # through them the combined event) alive forever.  Once the winner
    # resolves, the still-pending losers must hold no watcher callbacks.
    sim = Simulator()
    winner = sim.timeout(10)
    losers = [sim.event(name=f"loser-{i}") for i in range(3)]
    combined = sim.any_of([winner] + losers)
    sim.run()
    assert combined.triggered and combined.ok
    for loser in losers:
        assert not loser.triggered
        assert loser._callbacks == []


def test_all_of_detaches_on_failure():
    # Same leak on the all_of failure path: one failure resolves the
    # combination, so the events still pending must drop their callbacks.
    sim = Simulator()
    doomed = sim.event(name="doomed")
    pending = [sim.event(name=f"pending-{i}") for i in range(3)]
    combined = sim.all_of([doomed] + pending)
    sim.schedule(5, doomed.fail, RuntimeError("boom"))
    sim.run()
    assert combined.triggered and not combined.ok
    for ev in pending:
        assert not ev.triggered
        assert ev._callbacks == []


def test_mass_cancellation_compacts_without_reordering():
    # Cancelling more than half the queue (past the 64-tombstone floor)
    # from inside a running callback rebuilds the heap mid-run; the
    # survivors must still run, in time order, exactly once.
    sim = Simulator()
    ran = []
    handles = {t: sim.schedule(t, ran.append, t) for t in range(1, 301)}
    doomed = [t for t in range(101, 301) if t % 5]

    def cancel_band():
        for t in doomed:
            handles[t].cancel()
        assert len(sim._queue) < 300 - len(doomed) // 2

    sim.schedule(0, cancel_band)
    sim.run()
    survivors = [t for t in range(1, 301) if t not in set(doomed)]
    assert ran == survivors
    assert sim.stats_events == len(survivors) + 1


def test_process_is_named():
    sim = Simulator()

    def behaviour():
        yield sim.timeout(1)

    proc = sim.process(behaviour(), name="tx-path")
    assert isinstance(proc, Process)
    assert proc.name == "tx-path"
    sim.run()
