"""Lint engine benchmark: cold vs warm-cache wall-clock over src/.

Runs the whole-program lint engine (``repro lint``) twice against a
scratch cache -- once from nothing, once with every module summary
cached -- and writes ``BENCH_lint.json`` at the repo root.  The warm run
re-parses nothing; it only re-links the project graph and re-runs the
cross-module phases, so the ratio measures what the incremental engine
actually buys a pre-push hook.

Standalone script (``make bench-lint``), not a pytest suite:
the interesting number is end-to-end CLI-equivalent wall-clock including
cache (de)serialization, which a microbenchmark harness would distort.
"""

import json
import platform
import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis.v2 import run_lint_v2

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_lint.json"
TARGET = REPO_ROOT / "src" / "repro"
#: Median-of-N to keep a single scheduler hiccup out of the artifact.
REPEATS = 3


def timed_run(cache_path: Path) -> dict:
    start = time.perf_counter()
    report = run_lint_v2([str(TARGET)], cache_path=str(cache_path))
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "files": report.files_scanned,
        "cache_hits": report.cache_hits,
        "reparsed": len(report.reparsed or ()),
        "findings": len(report.new),
    }


def median_run(cache_path: Path, *, cold: bool) -> dict:
    samples = []
    for _ in range(REPEATS):
        if cold:
            cache_path.unlink(missing_ok=True)
        samples.append(timed_run(cache_path))
    samples.sort(key=lambda s: s["wall_s"])
    picked = dict(samples[len(samples) // 2])
    picked["wall_s"] = round(picked["wall_s"], 4)
    return picked


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="lint-bench-"))
    cache = scratch / "cache.json"
    try:
        cold = median_run(cache, cold=True)
        warm = median_run(cache, cold=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    speedup = round(cold["wall_s"] / warm["wall_s"], 2)
    payload = {
        "benchmark": "lint_incremental",
        "config": {
            "target": "src/repro",
            "repeats_median_of": REPEATS,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "runs": {"cold": cold, "warm": warm},
        "speedup_warm_over_cold": speedup,
        "note": (
            "cold parses + summarizes every module; warm replays cached "
            "summaries and only re-links the graph and cross-module phases"
        ),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {OUT}")
    ok = warm["reparsed"] == 0 and cold["findings"] == warm["findings"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
