"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.units import MS


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


def test_any_of_returns_first():
    sim = Simulator()
    a = sim.timeout(20, "a")
    b = sim.timeout(10, "b")
    got = []
    sim.any_of([a, b]).add_callback(lambda e: got.append((e.value, sim.now)))
    sim.run()
    assert got == [((b, "b"), 10)]


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
