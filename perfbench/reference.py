"""A fixed pure-Python task that measures the host's speed, not the program's.

The benchmark's host may be shared: its speed moves by tens of percent
within seconds as neighbours come and go, and drifts over minutes.  This
task never changes with the program, so its time follows only the host.
It runs between the workload's batches, and a run's end-to-end times are
scaled by ``NOMINAL_S / best reference time``, which states them at one
fixed host speed.

The task does the kind of interpreter work the simulator and the lint
pass do, with a working set of the same order (a few MB): a heap-ordered
event loop over thousands of small objects, stores into a large dict and
generator sends.  A loop that fits in the first-level caches tracked the
workloads worse, because neighbours slow a large working set more.
"""

from __future__ import annotations

import heapq
import random
import time

EVENTS = 150_000
TIMERS = 4096
TABLE = 65_536
COROUTINES = 256

#: The task's best time on the 2-vCPU x86 VM (Python 3.11) this benchmark
#: was built on, at a quiet moment; end-to-end times are stated at that
#: host speed.
NOMINAL_S = 0.200


class _Timer:
    __slots__ = ("period", "fired", "log")

    def __init__(self, period: int) -> None:
        self.period = period
        self.fired = 0
        self.log: list[int] = []


def _recorder(timer: _Timer):
    while True:
        now = yield
        timer.log.append(now)
        if len(timer.log) > 8:
            del timer.log[:4]


def reference_s() -> float:
    """Host seconds for one run of the fixed task."""
    started = time.perf_counter()
    rng = random.Random(1)
    queue = [(rng.randrange(1000), i, _Timer(1 + rng.randrange(997))) for i in range(TIMERS)]
    heapq.heapify(queue)
    recorders = [_recorder(entry[2]) for entry in queue[:COROUTINES]]
    for recorder in recorders:
        next(recorder)
    table: dict[int, tuple[_Timer, int]] = {}
    seq = len(queue)
    for _ in range(EVENTS):
        now, _seq, timer = heapq.heappop(queue)
        timer.fired += 1
        table[(now * 2654435761 + seq) % TABLE] = (timer, now)
        recorders[seq % COROUTINES].send(now)
        seq += 1
        heapq.heappush(queue, (now + timer.period, seq, timer))
    return time.perf_counter() - started
