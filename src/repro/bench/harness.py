"""The bench workloads and the regression check.

Three standard workloads, smallest to largest grain:

* ``kernel`` -- one clean CTMSP stream on a fresh testbed: the pure
  event-kernel hot path (the number a kernel optimisation must move);
* ``chaos_point`` -- one chaos point at intensity 1.0: the kernel plus
  fault injection and invariant monitoring, i.e. one fleet work unit;
* ``fleet_campaign`` -- a small serial campaign through the real fleet
  runner (journal, merge): supervision overhead included.

Each workload reports host wall-clock, dispatched calendar entries
(``Simulator.stats_events``), delivered packets, and the derived
events/sec / packets/sec rates.  A second, *profiled* kernel run
(``Simulator(profile=True)``) contributes the hottest dispatch keys so
the artifact also says *where* the time went.

This module is a sanctioned host-clock home (see ``repro.bench``): the
perf_counter reads here are the measurement, not a leak of wall time
into a simulated path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.sim.units import SEC

#: Artifact schema version (bump on incompatible payload changes).
BENCH_VERSION = 1

#: Tolerated throughput fraction before --check calls regression.  Loose
#: on purpose: shared CI boxes jitter by 2-3x; a real kernel regression
#: (accidental quadratic scan, unbatched same-instant storm) blows past
#: any plausible scheduler noise.
DEFAULT_TOLERANCE = 0.25


def _workload_kernel(quick: bool) -> dict[str, Any]:
    """One clean CTMSP stream: the raw event-kernel hot path."""
    from repro.core.session import CTMSSession
    from repro.experiments.testbed import HostConfig, Testbed

    duration_ns = (1 if quick else 4) * SEC
    bed = Testbed(seed=11)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    start = time.perf_counter()
    session.establish()
    bed.run(duration_ns)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "events": bed.sim.stats_events,
        "packets": session.sink_tracker.delivered,
        "sim_s": duration_ns / SEC,
    }


def _workload_chaos_point(quick: bool) -> dict[str, Any]:
    """One chaos point: kernel + faults + invariant monitor."""
    from repro.experiments.chaos import build_plan, run_one

    duration_ns = (1 if quick else 4) * SEC
    seed = 11
    plan = build_plan(seed, 1.0, duration_ns)
    start = time.perf_counter()
    run = run_one("ctmsp", plan, seed, duration_ns, intensity=1.0)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "events": run.events,
        "packets": run.delivered,
        "sim_s": duration_ns / SEC,
    }


def _workload_fleet_campaign(quick: bool) -> dict[str, Any]:
    """A small serial campaign through the real fleet runner."""
    from repro.experiments.fleet import chaos_fleet_spec, run_fleet

    duration_ns = (1 if quick else 2) * SEC
    seeds = [1] if quick else [1, 2]
    spec = chaos_fleet_spec(seeds, duration_ns=duration_ns, intensities=(1.0,))
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    try:
        start = time.perf_counter()
        result = run_fleet(spec, jobs=1, state_dir=scratch)
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    events = sum(
        (result.result_for(p.key) or {}).get("events", 0) for p in spec.points
    )
    packets = sum(
        (result.result_for(p.key) or {}).get("delivered", 0)
        for p in spec.points
    )
    return {
        "wall_s": wall_s,
        "events": events,
        "packets": packets,
        "sim_s": len(spec.points) * duration_ns / SEC,
    }


WORKLOADS: dict[str, Callable[[bool], dict[str, Any]]] = {
    "kernel": _workload_kernel,
    "chaos_point": _workload_chaos_point,
    "fleet_campaign": _workload_fleet_campaign,
}


def _kernel_hotspots(quick: bool, top: int = 8) -> list[dict[str, Any]]:
    """Hottest dispatch keys of a profiled kernel run (informational)."""
    from repro.core.session import CTMSSession
    from repro.experiments.testbed import HostConfig, Testbed

    duration_ns = (1 if quick else 2) * SEC
    bed = Testbed(seed=11, profile=True)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    CTMSSession(tx.kernel, rx.kernel).establish()
    bed.run(duration_ns)
    total = sum(bed.sim.profile_ns.values()) or 1
    rows = sorted(bed.sim.profile_ns.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        {
            "key": key,
            "calls": bed.sim.profile_calls[key],
            "pct": round(100 * ns / total, 1),
        }
        for key, ns in rows[:top]
    ]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


#: Samples per workload for the committed artifact.  Shared boxes jitter
#: by 10-15% run to run; best-of-N with the collector paused during the
#: timed region measures the kernel, not the host's mood.  --quick keeps
#: a single sample (it is a smoke test, not a measurement).
DEFAULT_REPEATS = 3


def _best_sample(fn: Callable[[bool], dict[str, Any]], quick: bool,
                 repeats: int) -> dict[str, Any]:
    """Run ``fn`` ``repeats`` times, gc paused, and keep the fastest wall."""
    best: dict[str, Any] | None = None
    for _ in range(max(1, repeats)):
        gc.collect()
        gc.disable()
        try:
            sample = fn(quick)
        finally:
            gc.enable()
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    assert best is not None
    return best


def run_bench(quick: bool = False, repeats: int | None = None) -> dict[str, Any]:
    """Run every workload; return the BENCH_kernel.json payload."""
    if repeats is None:
        repeats = 1 if quick else DEFAULT_REPEATS
    workloads: dict[str, dict[str, Any]] = {}
    for name, fn in WORKLOADS.items():
        sample = _best_sample(fn, quick, repeats)
        wall = max(sample["wall_s"], 1e-9)
        workloads[name] = {
            "wall_s": round(sample["wall_s"], 3),
            "sim_s": sample["sim_s"],
            "events": sample["events"],
            "events_per_sec": round(sample["events"] / wall),
            "packets": sample["packets"],
            "packets_per_sec": round(sample["packets"] / wall),
        }
    return {
        "benchmark": "kernel_trajectory",
        "v": BENCH_VERSION,
        "config": {
            "quick": quick,
            "repeats": repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": _usable_cpus(),
        },
        "workloads": workloads,
        "kernel_hotspots": _kernel_hotspots(quick),
        "note": (
            "events/sec is dispatched calendar entries per host second; "
            "committed per PR so the kernel's perf trajectory is visible. "
            "repro bench --check compares against this artifact."
        ),
    }


def write_bench(payload: dict[str, Any], out: str | Path) -> None:
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "workloads" not in data:
        raise ValueError(f"{path} is not a bench artifact (no 'workloads')")
    return data


def check_bench(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages (empty = pass) comparing events/sec rates.

    A workload regresses when its measured events/sec falls below
    ``tolerance`` times the committed baseline's.  Workloads present only
    on one side are ignored (adding a workload must not fail old
    baselines, and vice versa); sim-event *counts* are compared exactly
    when both sides ran non-quick, because the same seed must schedule
    the same calendar.
    """
    if not 0 < tolerance <= 1:
        raise ValueError("tolerance must be in (0, 1]")
    messages: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name in sorted(current.get("workloads", {})):
        if name not in base_workloads:
            continue
        cur = current["workloads"][name]
        base = base_workloads[name]
        floor = base.get("events_per_sec", 0) * tolerance
        if cur.get("events_per_sec", 0) < floor:
            messages.append(
                f"{name}: {cur.get('events_per_sec')} events/sec is below "
                f"{floor:.0f} ({tolerance:.0%} of baseline "
                f"{base.get('events_per_sec')})"
            )
        same_shape = not current["config"].get("quick") and not baseline[
            "config"
        ].get("quick")
        if same_shape and cur.get("events") != base.get("events"):
            messages.append(
                f"{name}: dispatched {cur.get('events')} sim events, "
                f"baseline dispatched {base.get('events')} -- the workload "
                "itself changed; refresh BENCH_kernel.json (make bench)"
            )
    return messages


def compare_bench(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """Human-readable trajectory lines between two bench artifacts.

    Per-workload events/sec and wall-clock deltas, then the hotspot table
    shift (percentage points of the profiled kernel run).  Purely
    informational -- ``check_bench`` is the gate, this is the narrative
    (``repro bench --compare OLD.json NEW.json`` / ``make bench-compare``).
    """
    lines: list[str] = []
    old_w = old.get("workloads", {})
    new_w = new.get("workloads", {})
    for name in sorted(set(old_w) | set(new_w)):
        if name not in old_w:
            lines.append(f"{name:<16} (new workload) "
                         f"{new_w[name].get('events_per_sec', 0):>10} ev/s")
            continue
        if name not in new_w:
            lines.append(f"{name:<16} (dropped workload)")
            continue
        o, n = old_w[name], new_w[name]
        o_rate = o.get("events_per_sec", 0) or 1
        n_rate = n.get("events_per_sec", 0)
        lines.append(
            f"{name:<16} {o_rate:>10} -> {n_rate:>10} ev/s "
            f"({(n_rate / o_rate - 1):+.1%})  wall "
            f"{o.get('wall_s', 0):.3f}s -> {n.get('wall_s', 0):.3f}s"
        )
        if o.get("events") != n.get("events"):
            lines.append(
                f"{'':<16} note: sim events {o.get('events')} -> "
                f"{n.get('events')} (workload shape changed)"
            )
    old_hot = {row["key"]: row for row in old.get("kernel_hotspots", [])}
    new_hot = {row["key"]: row for row in new.get("kernel_hotspots", [])}
    if old_hot or new_hot:
        lines.append("kernel hotspots (% of profiled run):")
        order = sorted(
            set(old_hot) | set(new_hot),
            key=lambda k: -(new_hot.get(k, old_hot.get(k))["pct"]),
        )
        for key in order:
            o_pct = old_hot[key]["pct"] if key in old_hot else None
            n_pct = new_hot[key]["pct"] if key in new_hot else None
            if o_pct is None:
                lines.append(f"  {key:<42} (new) {n_pct:>5.1f}%")
            elif n_pct is None:
                lines.append(f"  {key:<42} {o_pct:>5.1f}% -> (off the list)")
            else:
                lines.append(
                    f"  {key:<42} {o_pct:>5.1f}% -> {n_pct:>5.1f}% "
                    f"({n_pct - o_pct:+.1f})"
                )
    return lines
