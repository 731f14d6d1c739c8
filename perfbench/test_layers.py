"""Layer attribution and the observe-only counter hooks.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import cProfile
import math
import pstats
from pathlib import Path

from perfbench.layers import LAYERS, attribute, path_layer_map

MAIN = ("perfbench/run.py", 1, "main")
RUN = ("repro/sim/engine.py", 1, "run")
TX = ("repro/ring/network.py", 1, "tx")
WIRE = ("repro/ring/frames.py", 1, "wire_time")
PRIO = ("repro/ring/network.py", 9, "prio")
APPEND = ("~", 0, "<method 'append' of 'list' objects>")
SORTED = ("~", 0, "<built-in method builtins.sorted>")
HEAPPUSH = ("/usr/lib/python3/heapq.py", 1, "heappush")
LT = ("~", 0, "<built-in method _operator.lt>")

FAKE_LAYERS = {MAIN: "other", RUN: "sim", TX: "ring", WIRE: "ring", PRIO: "ring"}


def entry(nc, tt, ct, callers):
    return (nc, nc, tt, ct, callers)


def edge(nc, tt, ct):
    return (nc, nc, tt, ct)


# other:main -> sim:run -> ring:tx -> ring:wire_time (and tx -> tx)
#                       \-> list.append <- ring:tx
#                        -> sorted -> ring:prio    (ring entered via a builtin)
#               ring:tx -> heapq.heappush -> operator.lt
CHAIN = {
    MAIN: entry(1, 0.10, 1.20, {}),
    RUN: entry(1, 0.20, 1.10, {MAIN: edge(1, 0.20, 1.10)}),
    TX: entry(10, 0.30, 0.70, {RUN: edge(10, 0.25, 0.65), TX: edge(2, 0.05, 0.05)}),
    WIRE: entry(10, 0.05, 0.05, {TX: edge(10, 0.05, 0.05)}),
    APPEND: entry(15, 0.05, 0.05, {RUN: edge(5, 0.02, 0.02), TX: edge(10, 0.03, 0.03)}),
    HEAPPUSH: entry(10, 0.20, 0.25, {TX: edge(10, 0.20, 0.25)}),
    LT: entry(20, 0.05, 0.05, {HEAPPUSH: edge(20, 0.05, 0.05)}),
    SORTED: entry(1, 0.04, 0.10, {RUN: edge(1, 0.04, 0.10)}),
    PRIO: entry(6, 0.06, 0.06, {SORTED: edge(6, 0.06, 0.06)}),
}


def test_self_times_sum_to_the_traced_total():
    times = attribute(CHAIN, FAKE_LAYERS.get)
    assert math.isclose(times.total_s, 1.05)
    assert math.isclose(sum(times.self_s.values()), times.total_s)


def test_builtins_and_stdlib_are_charged_to_the_calling_layer():
    times = attribute(CHAIN, FAKE_LAYERS.get)
    # append: 0.02 of its 0.05 under sim:run, 0.03 under ring:tx (by
    # time per edge); heappush and the lt it calls sit under ring:tx.
    assert math.isclose(times.self_s["sim"], 0.20 + 0.02 + 0.04)
    assert math.isclose(times.self_s["ring"], 0.30 + 0.05 + 0.06 + 0.03 + 0.20 + 0.05)
    assert math.isclose(times.self_s["other"], 0.10)
    assert set(times.self_s) == set(LAYERS)


def test_calls_in_counts_only_layer_crossings():
    times = attribute(CHAIN, FAKE_LAYERS.get)
    # sim: main -> run.  ring: run -> tx (10) and sorted-under-sim -> prio
    # (6); tx -> tx and tx -> wire_time stay inside ring.
    assert math.isclose(times.calls_in["sim"], 1)
    assert math.isclose(times.calls_in["ring"], 16)
    assert times.calls_in["other"] == 0
    assert sum(times.calls_in.values()) == times.calls_in["sim"] + times.calls_in["ring"]


def _leaf(n):
    return sorted(range(n))


def _middle(n):
    return [_leaf(n) for _ in range(3)]


def _top(n):
    return [_middle(n) for _ in range(2)]


def test_real_profile_sums_and_crossings():
    layer_by_name = {"_top": "sim", "_middle": "ring", "_leaf": "ring"}
    profiler = cProfile.Profile()
    profiler.enable()
    _top(2000)
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    def layer_of(func):
        return layer_by_name.get(func[2]) if func[0] == __file__ else None

    times = attribute(stats, layer_of)
    assert math.isclose(sum(times.self_s.values()), times.total_s, rel_tol=1e-9)
    assert times.self_s["ring"] > 0  # the sorted() calls land under _leaf
    assert times.calls_in["ring"] == 2  # _top -> _middle; _middle -> _leaf is inside ring
    assert times.calls_in["sim"] == 1


def test_path_layer_map():
    repro = Path("/x/src/repro")
    layer_of = path_layer_map(repro, Path("/x/perfbench"))
    assert layer_of(("/x/src/repro/sim/engine.py", 1, "run")) == "sim"
    assert layer_of(("/x/src/repro/experiments/fleet.py", 1, "run_fleet")) == "experiments.fleet"
    assert layer_of(("/x/src/repro/experiments/chaos.py", 1, "run_one")) == "experiments"
    assert layer_of(("/x/src/repro/cli.py", 1, "main")) == "other"
    assert layer_of(("/x/perfbench/run.py", 1, "main")) == "other"
    assert layer_of(("/usr/lib/python3.11/heapq.py", 1, "heappush")) is None
    assert layer_of(("~", 0, "<built-in method builtins.len>")) is None


def test_observer_reads_counters_without_changing_the_run():
    from repro.experiments.chaos import build_plan, run_one
    from repro.sim.units import SEC

    from perfbench.observe import TestbedObserver

    plan = build_plan(3, 1.0, 1 * SEC)
    plain = run_one("ctmsp", plan, 3, 1 * SEC, intensity=1.0)
    with TestbedObserver() as observer:
        observed = run_one("ctmsp", plan, 3, 1 * SEC, intensity=1.0)
    assert observed.as_dict() == plain.as_dict()
    (point,) = observer.points
    assert point.events == plain.events
    assert point.setup_attempts == plain.setup_attempts
    assert point.delivered == plain.delivered
    assert point.faults_fired > 0
    assert observer.overhead_s > 0
