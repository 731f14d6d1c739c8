"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_loaded --seed 1 --seconds 30 --trace 0

Run from the repository root (the script finds ``src/`` next to its own
directory).  ``--trace 0`` times untraced batches and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and cProfile-traced
batches and reports the per-layer metrics.  Host times are stated at a
nominal host speed (see ``reference.py``).  Every line but the last is a
readable report; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units
come from ``BENCHMARK.json``; a metric the code does not produce, or
produces under another unit, is an error.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed from start to first simulated event, per run.
SETUP_PROBES = 21
#: Timed batches per input, at least, however short ``--seconds`` is.
MIN_REPEATS = 2
#: Host seconds between reference-task runs in a traced run, at most one
#: per step.  An untraced run times the reference task before every step.
REFERENCE_EVERY_S = 1.0
PROBE_TIMEOUT_S = 60


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a set-up probe that exits at the first event.
    parser.add_argument("--first-event-probe", metavar="TMP_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.first_event_probe:
        return first_event_probe(build(args.workload, args.seed, Path(args.first_event_probe)))

    tmp_dir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload = build(args.workload, args.seed, tmp_dir)
        probe = None if args.trace else lambda i: probe_setup(args, tmp_dir / f"probe-{i}")
        run = measure(workload, args.seconds, traced=bool(args.trace), probe=probe)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    return report(args, spec, run)


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def first_event_probe(workload) -> int:
    """Print the host clock at the workload's first event, then exit."""
    owner, name = workload.first_event

    def stop(*_args, **_kwargs):
        print(json.dumps({"first_event": time.monotonic()}), flush=True)
        os._exit(0)

    setattr(owner, name, stop)
    workload.run_batch(0)
    print("perfbench: workload finished without reaching its first event", file=sys.stderr)
    return 1


def probe_setup(args: argparse.Namespace, probe_dir: Path) -> float:
    """Seconds from process start to first event, in a fresh process."""
    probe_dir.mkdir()
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--first-event-probe", str(probe_dir),
    ]
    started = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    reached = json.loads(done.stdout.strip().splitlines()[-1])["first_event"]
    return reached - started


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class Run:
    """Everything one invocation measured, in run order."""

    def __init__(self) -> None:
        #: The first untraced batch of each input, in input order; their
        #: counters are the ones reported.
        self.first: list = []
        #: (input index, batch) for every untraced batch.
        self.untraced: list[tuple[int, Any]] = []
        self.traced: list = []
        #: Every batch in the order it ran.
        self.batches: list = []
        self.profile: pstats.Stats | None = None
        #: (set-up probe time, reference time of its step), in run order.
        self.setup: list[tuple[float, float]] = []
        #: (untraced batch wall, reference time just before it), for every
        #: untraced batch that had a reference run of its own.
        self.paired: list[tuple[float, float]] = []
        #: Reference task times, in the order they ran.
        self.reference: list[float] = []

    def host_scale(self) -> float:
        """Factor that states this run's host times at the nominal host
        speed (see ``reference.py``)."""
        from perfbench.reference import NOMINAL_S

        return NOMINAL_S / min(self.reference)

    @staticmethod
    def nominal_s(pairs: list[tuple[float, float]]) -> float:
        """Median host time at the nominal host speed, each time scaled by
        the reference time measured next to it."""
        from perfbench.reference import NOMINAL_S

        return statistics.median(host_s / ref_s for host_s, ref_s in pairs) * NOMINAL_S

    def best_s(self) -> list[float]:
        """Each input's fastest untraced batch wall, in input order."""
        best: dict[int, float] = {}
        for index, batch in self.untraced:
            best[index] = min(best.get(index, batch.wall_s), batch.wall_s)
        return [best[index] for index in sorted(best)]


def measure(
    workload, seconds: float, traced: bool, probe: Callable[[int], float] | None = None
) -> Run:
    """Cycle through the workload's inputs until ``seconds`` would be
    exceeded, with at least ``MIN_REPEATS`` untraced batches per input.

    ``probe(i)`` times set-up probe ``i``; the ``SETUP_PROBES`` probes are
    spread evenly over the run, between batches, so that their median
    covers the host's state over the whole run.

    A traced run follows each untraced batch with a traced batch on the
    same input, and one profiler accumulates over every traced batch.
    Only the first batch of each input keeps its counters, so memory does
    not grow with the number of batches.

    An untraced run times the reference task at the start of every step,
    and pairs that time with the step's set-up probes and its batch: the
    host's speed moves within seconds, so a time is best stated at the
    nominal speed by the reference time measured next to it.  A traced
    run times the reference task only once ``REFERENCE_EVERY_S`` has
    passed since its last run, for ``host_scale``.
    """
    from perfbench.reference import reference_s

    run = Run()
    profiler = cProfile.Profile() if traced else None
    every_s = REFERENCE_EVERY_S if traced else 0.0
    begun = time.perf_counter()
    deadline = begun + seconds

    def probe_due() -> bool:
        due = begun + len(run.setup) * seconds / SETUP_PROBES
        return probe is not None and len(run.setup) < SETUP_PROBES and time.perf_counter() >= due

    step = 0
    step_s = 0.0
    referenced = begun - every_s
    while step < MIN_REPEATS * workload.inputs or time.perf_counter() + step_s <= deadline:
        index = step % workload.inputs
        started = time.perf_counter()
        fresh = started - referenced >= every_s
        if fresh:
            run.reference.append(reference_s())
            referenced = started
        while probe_due():
            run.setup.append((probe(len(run.setup)), run.reference[-1]))
        gc.collect()
        batch = workload.run_batch(index)
        if fresh and profiler is None:
            run.paired.append((batch.wall_s, run.reference[-1]))
        if step < workload.inputs:
            run.first.append(batch)
        else:
            batch.points = []
        run.untraced.append((index, batch))
        run.batches.append(batch)
        if profiler is not None:
            gc.collect()
            batch = workload.run_batch(index, profiler)
            batch.points = []
            run.traced.append(batch)
            run.batches.append(batch)
        step_s = time.perf_counter() - started
        step += 1
    while probe is not None and len(run.setup) < SETUP_PROBES:
        run.setup.append((probe(len(run.setup)), run.reference[-1]))
    if profiler is not None:
        run.profile = pstats.Stats(profiler)
    return run


def point_failures(run: Run) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every point of every batch.

    A point fails if it raised, if the fleet failed it, if a batch claim
    does not hold, or if its digest differs from the first run of the same
    input (its first untraced batch).
    """
    first_digest: dict[str, str] = {}
    attempted = failed = 0
    reasons: list[str] = []
    for batch in run.batches:
        broken = [name for name, ok in batch.claims.items() if not ok]
        for label in batch.labels:
            attempted += 1
            digest = batch.digests.get(label)
            expected = first_digest.setdefault(label, digest)
            if label in batch.errors:
                reasons.append(f"{label}: {batch.errors[label]}")
            elif digest is None or digest != expected:
                reasons.append(f"{label}: digest differs from its first run")
            elif broken:
                reasons.extend(f"{label}: claim failed: {name}" for name in broken)
            else:
                continue
            failed += 1
    return attempted, failed, sorted(set(reasons))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (run.nominal_s(run.paired), "s"),
        "setup_s": (run.nominal_s(run.setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def counters(run: Run) -> dict[str, tuple[float, str]]:
    """The program's public counters over each input's first batch (they
    repeat exactly under a seed), plus host-time rates from the fastest
    untraced batch of each input, at the nominal host speed."""
    from perfbench.observe import percentile

    points = [p for batch in run.first for p in batch.points]
    scale = run.host_scale()
    wall_s = sum(run.best_s()) * scale

    def total(attr: str) -> float:
        return sum(getattr(p, attr) for p in points)

    sim_ns = total("sim_ns")
    events = total("events")
    frames = total("ring_frames")
    cpu_ns = sum(p.cpus * p.sim_ns for p in points)
    latencies = sorted(ns for p in points for ns in p.latencies_ns)
    built = total("packets_built")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fleet_overhead = statistics.median(b.fleet_overhead_s for _i, b in run.untraced) * scale
    return {
        "host.reference_s": (min(run.reference), "s"),
        "host.scale": (scale, "x"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (ratio(wall_s * 1e9, events), "ns"),
        "sim.sim_s_per_s": (ratio(sim_ns / 1e9, wall_s), "s/s"),
        "hardware.irqs": (total("irqs"), "count"),
        "hardware.cpu_busy_frac": (ratio(total("cpu_busy_ns"), cpu_ns), "fraction"),
        "ring.frames": (frames, "count"),
        "ring.util": (ratio(total("ring_busy_ns"), sim_ns), "fraction"),
        "ring.purges": (total("purges"), "count"),
        "ring.token_wait_ms": (ratio(total("token_wait_ns"), frames) / 1e6, "ms"),
        "unix.cpu_copies": (total("cpu_copies"), "count"),
        "unix.cpu_copy_mb": (total("cpu_copy_bytes") / 1e6, "MB"),
        "unix.mbuf_allocs": (total("mbuf_allocs"), "count"),
        "drivers.tx_queue_peak": (max((p.tx_queue_peak for p in points), default=0), "count"),
        "drivers.rx_dropped": (total("rx_dropped"), "count"),
        "core.setup_attempts": (total("setup_attempts"), "count"),
        "core.failovers": (sum(b.failovers for b in run.first), "count"),
        "core.shed": (sum(b.shed for b in run.first), "count"),
        "measure.samples": (total("samples"), "count"),
        "faults.fired": (total("faults_fired"), "count"),
        "faults.violations": (sum(b.violations for b in run.first), "count"),
        "experiments.fleet.overhead_s": (fleet_overhead, "s"),
        "analysis.modules": (sum(b.modules for b in run.first), "count"),
        "stream.delivered_frac": (ratio(total("delivered"), built), "fraction"),
        "stream.lost": (total("lost"), "count"),
        "stream.packets": (len(latencies), "count"),
        "stream.latency_p50_ms": (percentile(latencies, 0.5) / 1e6, "ms"),
        "stream.latency_p99_ms": (percentile(latencies, 0.99) / 1e6, "ms"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    from perfbench.layers import LAYERS, attribute, path_layer_map

    metrics = counters(run)
    times = attribute(run.profile.stats, path_layer_map(SRC / "repro", HERE))
    n = len(run.traced)
    scale = run.host_scale()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (times.self_s[layer] / n * scale, "s")
        metrics[f"{layer}.share"] = (times.self_s[layer] / times.total_s, "fraction")
        metrics[f"{layer}.calls_in"] = (times.calls_in[layer] / n, "calls")
    overhead = statistics.median(
        t.wall_s / u.wall_s for (_i, u), t in zip(run.untraced, run.traced)
    )
    metrics["trace.total_s"] = (times.total_s / n * scale, "s")
    metrics["trace.overhead_x"] = (overhead, "x")
    return metrics


def report(args: argparse.Namespace, spec: dict, run: Run) -> int:
    from perfbench.workloads import batch_seed

    attempted, failed, reasons = point_failures(run)
    if args.trace:
        metrics, listed = per_layer(run), spec["per_layer"]
    else:
        metrics, listed = {**end_to_end(run), **counters(run)}, spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    missing = [name for name, unit in expected.items()
               if name not in metrics or metrics[name][1] != unit]
    if missing:
        raise RuntimeError(f"metrics missing or in another unit: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"batches: {len(run.untraced)} untraced + {len(run.traced)} traced over "
          f"{len(run.first)} inputs; input i runs on program seed {batch_seed(args.seed, 0)} + i")
    for index, first in enumerate(run.first):
        walls = [b.wall_s for i, b in run.untraced if i == index]
        print(f"input {index} untraced walls: " + " ".join(f"{w:.4f}" for w in walls) + " s")
        for name, ok in first.claims.items():
            if not ok:
                print(f"  claim FAILS: {name}")
    if run.setup:
        print("set-up probes: " + ", ".join(f"{s:.4f}" for s, _ref in run.setup) + " s")
    print(f"reference task: best {min(run.reference):.4f} s of {len(run.reference)}; "
          f"wall_s and setup_s are scaled by the reference time next to each, "
          f"other host times by {run.host_scale():.4f}")
    for name in run.first[0].claims:
        print(f"claim checked on every batch: {name}")
    print(f"points attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.4f})")
    for reason in reasons:
        print(f"  {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in expected.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
