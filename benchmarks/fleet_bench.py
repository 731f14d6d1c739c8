"""Fleet scaling benchmark: wall-clock jobs=1 vs jobs=4.

Runs the same chaos campaign (4 seeds x 2 profiles at intensity 1.0)
serially and through the supervised 4-worker pool, checks the merged
reports are byte-identical, and writes ``BENCH_fleet.json`` at the repo
root with wall-clock, simulated-event throughput, and the speedup.

Standalone script (``make bench-fleet``), not a pytest-benchmark suite:
the interesting number is end-to-end campaign wall-clock including
process supervision, which a microbenchmark harness would distort.
"""

import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

from repro.experiments.chaos import chaos_fleet_spec
from repro.experiments.fleet import run_fleet
from repro.sim.units import SEC

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_fleet.json"

SEEDS = [1, 2, 3, 4]
DURATION_NS = 8 * SEC
INTENSITIES = (0.5, 1.0, 2.0)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def timed_run(jobs: int, state_dir: Path):
    spec = chaos_fleet_spec(SEEDS, duration_ns=DURATION_NS, intensities=INTENSITIES)
    start = time.perf_counter()
    result = run_fleet(spec, jobs=jobs, state_dir=state_dir)
    wall_s = time.perf_counter() - start
    assert result.ok(), f"jobs={jobs} campaign failed"
    events = sum(
        result.result_for(p.key)["events"] for p in spec.points
    )
    return {
        "jobs": jobs,
        "wall_s": round(wall_s, 3),
        "points": len(spec.points),
        "sim_events": events,
        "events_per_sec": round(events / wall_s),
    }, result.render()


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="fleet-bench-"))
    try:
        serial, serial_render = timed_run(1, scratch / "serial")
        parallel, parallel_render = timed_run(4, scratch / "parallel")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {
        "benchmark": "fleet_scaling",
        "config": {
            "seeds": SEEDS,
            "duration_s": DURATION_NS / SEC,
            "intensities": list(INTENSITIES),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": usable_cpus(),
        },
        "runs": [serial, parallel],
        "speedup_jobs4_over_jobs1": round(serial["wall_s"] / parallel["wall_s"], 2),
        "renders_identical": serial_render == parallel_render,
        "note": (
            "speedup is bounded by config.cpus (CPU-bound sim workers); on a "
            "single-CPU host the ratio instead measures supervision overhead"
        ),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {OUT}")
    return 0 if payload["renders_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
