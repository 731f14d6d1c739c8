"""Golden-trace pins of the event calendar.

Each workload below stresses a different ordering hazard -- same-instant
batches, cancellation/tombstones, random tie-break jitter, and far timers
interleaved with a near stream.  A run is fingerprinted as the sha256 of
``repr((trace, now, stats_events))``.

The digests were recorded at the last revision that carried two calendar
backends (a calendar queue and a single binary heap), where these same
workloads produced byte-identical fingerprints under both.  The single
heap that replaced them must keep reproducing those fingerprints, so a
passing pin shows the event order is unchanged from either backend.
``timeout_and_combinators`` is the exception: it drove coroutine
processes until the engine dropped them, and its pins were recorded from
the callback rewrite below on the last engine that still had processes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sim.engine import COMPACT_MIN_TOMBSTONES, Simulator
from repro.sim.units import MS, SEC, US


def _fingerprint(sim: Simulator) -> str:
    assert sim.stats_events == len(sim.trace)
    blob = repr((sim.trace, sim.now, sim.stats_events)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# workload builders (deterministic: all randomness from a fixed seed)
# ---------------------------------------------------------------------------

def _same_instant_heavy(sim: Simulator) -> None:
    """Many entries per instant, with callbacks stacking more onto *now*."""
    rng = random.Random(1991)

    def burst(depth: int) -> None:
        if depth <= 0:
            return
        for _ in range(3):
            sim.schedule_fast(rng.choice((0, 0, 0, 10, 12 * US)), burst, depth - 1)

    for _ in range(25):
        sim.schedule(rng.choice((0, 0, 5 * US, 5 * US, MS)), burst, 3)


def _cancellation_heavy(sim: Simulator) -> None:
    """Hundreds of cancellations, up front and from inside the run."""
    rng = random.Random(404)
    handles = []

    def noop(i: int) -> None:
        # Late cancellations from inside the run: kill a band of handles
        # whose times are still in the future.
        if i == 40:
            for h in handles[150:290]:
                h.cancel()

    for i in range(420):
        handles.append(sim.schedule(rng.randrange(1, 80 * MS), noop, i))
    # Cancel more than COMPACT_MIN_TOMBSTONES up front: past the compaction
    # floor, though tombstones never reach half the queue, so the heap is
    # not rebuilt here (test_engine covers a mid-run compaction).
    assert len(handles) > 2 * COMPACT_MIN_TOMBSTONES
    for h in handles[: COMPACT_MIN_TOMBSTONES + 30]:
        h.cancel()


def _far_timer_mix(sim: Simulator) -> None:
    """Near traffic plus timers seconds to a minute out.

    The far timers (5 s to 60 s, some one or two nanoseconds apart) must
    interleave correctly with the millisecond-scale near stream.
    """
    rng = random.Random(77)

    def rearm(times_left: int) -> None:
        if times_left > 0:
            sim.schedule_fast(rng.randrange(1, 2 * MS), rearm, times_left - 1)

    for _ in range(10):
        sim.schedule_fast(rng.randrange(0, MS), rearm, 50)
    for far in (5 * SEC, 10 * SEC, 10 * SEC + 1, 60 * SEC):
        sim.at(far, rearm, 5)
        sim.schedule(far + rng.randrange(0, 3), rearm, 2)


def _timeout_and_combinators(sim: Simulator) -> None:
    """Event-layer traffic: chains of timeout callbacks and any_of."""

    def spin(n: int) -> None:
        if n > 0:
            sim.timeout(10 * US).add_callback(lambda _ev: spin(n - 1))
            return
        first = sim.any_of([sim.timeout(MS), sim.timeout(2 * MS)])
        first.add_callback(
            lambda _ev: sim.any_of([sim.timeout(30 * US), sim.timeout(40 * US)])
        )

    for i in range(8):
        spin(4 + i)


# ---------------------------------------------------------------------------
# the pinned matrix
# ---------------------------------------------------------------------------

WORKLOADS = {
    "same_instant_heavy": _same_instant_heavy,
    "cancellation_heavy": _cancellation_heavy,
    "far_timer_mix": _far_timer_mix,
    "timeout_and_combinators": _timeout_and_combinators,
}

#: Dispatched events per workload (identical in every mode below).
EVENTS = {
    "cancellation_heavy": 326,
    "far_timer_mix": 546,
    "same_instant_heavy": 1000,
    "timeout_and_combinators": 176,
}

#: sha256 of ``repr((trace, now, stats_events))`` per workload and mode.
PINS = {
    "cancellation_heavy": {
        "fifo": "91ff90873b6e3e8249c7d8d5c9fa30217ce1173b735b2aaed77365910fb34c0e",
        "random": "91ff90873b6e3e8249c7d8d5c9fa30217ce1173b735b2aaed77365910fb34c0e",
        "bounded": "5998299d8430e41a915a55cb260a955d488194bb0fefd5dde4793e5396683119",
    },
    "far_timer_mix": {
        "fifo": "08e264f60d71742160f9d177c1e30a4f14292128b2445fd128625f2de037670e",
        "random": "08e264f60d71742160f9d177c1e30a4f14292128b2445fd128625f2de037670e",
        "bounded": "22cdfeec93500b789d9c61665192f4e5861c348e311288b1ba96027cc84a48ca",
    },
    "same_instant_heavy": {
        "fifo": "49eae9cd59554f026657d6f9c0a060898ea944c9193024a67fe83090905dbcaa",
        "random": "1e2a03e55607dbe40f84e720ba21c7e640c25f8c6992691b17dc2e60cf86d411",
        "bounded": "14ccf6fc8e4ef5e97c0c094cb374891352454768a714ed35d64df3cb7f20336b",
    },
    "timeout_and_combinators": {
        "fifo": "30475ce398a87fc80aad51bbce3dc653fe9a834d6963ed1d10ecfdd57bc4fdc3",
        "random": "d28904656df879c3168db4bde22dc53798073b5c4119a9874ab1e4664509591a",
        "bounded": "82d9f7eea42778d6dd66201e59acf6d51c92921906decd6a03dca7ccbfa12c7a",
    },
}


def _run(builder, tiebreak: str) -> Simulator:
    sim = Simulator(tiebreak=tiebreak, tiebreak_seed=7, record_trace=True)
    builder(sim)
    sim.run()
    return sim


def _assert_pinned(name: str, mode: str, sim: Simulator) -> None:
    assert sim.stats_events == EVENTS[name]
    assert _fingerprint(sim) == PINS[name][mode]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_backends_identical_fifo(name):
    _assert_pinned(name, "fifo", _run(WORKLOADS[name], "fifo"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_backends_identical_random_tiebreak(name):
    # The jitter stream is drawn in schedule-call order from tiebreak_seed=7.
    _assert_pinned(name, "random", _run(WORKLOADS[name], "random"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_backends_identical_bounded_runs(name):
    """run(until=...) in uneven slices matches one unbounded run's order."""
    sim = Simulator(record_trace=True)
    WORKLOADS[name](sim)
    for bound in (3 * US, 777 * US, 15 * MS, 2 * SEC, 61 * SEC):
        sim.run(until=bound)
    sim.run()
    _assert_pinned(name, "bounded", sim)
