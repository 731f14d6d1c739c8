"""Perf-trajectory harness: standard workloads, committed baselines.

The ROADMAP's fast-event-kernel work needs a measurement substrate before
it needs a faster heap: ``repro bench`` runs the standard kernel and
fleet workloads (events/sec, packets/sec, wall-clock), writes
``BENCH_kernel.json`` at the repo root -- committed per PR so the perf
trajectory is visible in history -- and ``repro bench --check`` fails
when throughput regresses past tolerance against the committed artifact.

All wall-clock reads live in :mod:`repro.bench.harness`, which joins
``experiments/fleet.py`` as a ctms-lint sanctioned host-clock home
(CTMS103/CTMS303): benchmarking *is* the second legitimate bridge
between the simulated clock domain and the host's.
"""

from repro import _lazy_facade

__getattr__, __dir__, __all__ = _lazy_facade(__name__, {
    "WORKLOADS": "harness",
    "check_bench": "harness",
    "compare_bench": "harness",
    "load_bench": "harness",
    "run_bench": "harness",
    "write_bench": "harness",
})
