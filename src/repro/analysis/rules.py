"""The ctms-lint rule registry.

Every rule has a stable ID (referenced by inline suppressions and the
baseline file), a severity, a one-line summary, and a fix-it hint.  The
rationale for each rule lives in ``docs/ANALYSIS.md``; the short version:
the repo's throughput/latency claims are only meaningful if the simulated
data path is bit-reproducible, and these rules mechanically enforce the
disciplines (integer-ns time, named seeded RNG streams, strict layering)
that reproducibility rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable ID, severity, summary, and fix-it hint."""

    id: str
    name: str
    severity: str
    summary: str
    hint: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="CTMS001",
            name="unused-suppression",
            severity=WARNING,
            summary="inline `ctms-lint: disable=` comment no longer suppresses anything",
            hint="the rule it names does not fire on this line any more; delete "
            "the comment so suppression debt cannot accumulate silently",
        ),
        Rule(
            id="CTMS101",
            name="global-random",
            severity=ERROR,
            summary="call to a module-level random function (shared global RNG state)",
            hint="draw from a named RandomStreams stream (repro.sim.rng) instead",
        ),
        Rule(
            id="CTMS102",
            name="unseeded-random",
            severity=ERROR,
            summary="random.Random() constructed without an explicit seed",
            hint="pass an explicit integer seed, or use RandomStreams/seeded_stream",
        ),
        Rule(
            id="CTMS103",
            name="wall-clock",
            severity=ERROR,
            summary="wall-clock call inside a simulated path",
            hint="simulated time is Simulator.now (integer ns); never read the host clock",
        ),
        Rule(
            id="CTMS104",
            name="unordered-scheduling",
            severity=WARNING,
            summary="iteration over a set/dict view schedules events (ordering "
            "depends on hash order)",
            hint="iterate sorted(...) or an explicitly ordered list before scheduling",
        ),
        Rule(
            id="CTMS105",
            name="random-from-import",
            severity=WARNING,
            summary="`from random import ...` hides global-RNG functions behind bare names",
            hint="import the module (for typing/seeded constructors) or use repro.sim.rng",
        ),
        Rule(
            id="CTMS111",
            name="transitively-nondeterministic",
            severity=ERROR,
            summary="call reaches a nondeterminism source through the call graph",
            hint="the callee (or something it calls) reads a wall clock, the "
            "global RNG, os.urandom, or the environment; route the value "
            "through repro.sim.rng / Simulator.now, or suppress at the true "
            "source if it is sanctioned",
        ),
        Rule(
            id="CTMS112",
            name="impure-function-in-sim-path",
            severity=ERROR,
            summary="function scheduled on the event calendar is (transitively) "
            "nondeterministic",
            hint="calendar callbacks must be pure w.r.t. the host: depend only "
            "on Simulator.now and named seeded RNG streams",
        ),
        Rule(
            id="CTMS201",
            name="float-delay",
            severity=ERROR,
            summary="float-typed expression passed as a simulated delay/timeout",
            hint="all sim time is integer ns; build delays from units.NS/US/MS/SEC "
            "or convert with units.from_us/from_ms/from_sec",
        ),
        Rule(
            id="CTMS211",
            name="float-ns-contamination",
            severity=ERROR,
            summary="float-typed value crosses a function boundary into an "
            "integer-ns slot",
            hint="convert at the boundary with int()/round() or the "
            "units.from_* helpers; keep every *_ns value an int",
        ),
        Rule(
            id="CTMS212",
            name="unit-mismatch",
            severity=ERROR,
            summary="values of incompatible dimensions mixed (ns vs seconds, "
            "bytes vs bits, ...)",
            hint="convert explicitly (units.from_sec, *8 for bytes->bits) so "
            "the dimension change is visible at the use site",
        ),
        Rule(
            id="CTMS301",
            name="layering",
            severity=ERROR,
            summary="import breaks the driver-to-driver layering",
            hint="lower layers must not reach up; move the dependency or invert it "
            "with a callback/event",
        ),
        Rule(
            id="CTMS302",
            name="measure-observe-only",
            severity=ERROR,
            summary="observe-only package (measure/obs) imports an actuator package",
            hint="measurement taps and observability instruments may observe "
            "(sim/hardware/ring/core types) but never drive "
            "drivers/experiments/faults",
        ),
        Rule(
            id="CTMS303",
            name="fleet-confinement",
            severity=ERROR,
            summary="process machinery imported outside a sanctioned home",
            hint="multiprocessing/subprocess/threading/signal (and wall "
            "clocks) belong only in repro/experiments/fleet.py -- keep "
            "every other module on the simulated clock, single-process",
        ),
        Rule(
            id="CTMS304",
            name="control-plane-confinement",
            severity=ERROR,
            summary="control-plane policy decision defined outside "
            "repro/core/control.py",
            hint="admission, placement, shedding, and failover policy "
            "(decide_admission/select_server/select_victims/plan_failover) "
            "live only in repro/core/control.py -- experiments and drivers "
            "consume decisions, they never make them",
        ),
    )
}

#: Packages whose import the layering rules reason about, and what each may
#: not import.  ``"*"`` means "no repro package outside itself" (kernel/tool
#: purity).  Mirrors the paper's architecture: hardware below drivers below
#: sessions below experiments, with measurement strictly off to the side.
LAYERING_FORBIDDEN: dict[str, frozenset[str]] = {
    "sim": frozenset({"*"}),
    "analysis": frozenset({"*"}),
    "hardware": frozenset(
        {"drivers", "core", "experiments", "workloads", "faults", "measure", "obs"}
    ),
    "unix": frozenset(
        {"drivers", "core", "experiments", "workloads", "measure", "obs"}
    ),
    "ring": frozenset(
        {"drivers", "core", "experiments", "workloads", "measure", "obs"}
    ),
    "protocols": frozenset(
        {"drivers", "experiments", "workloads", "measure", "obs"}
    ),
    "drivers": frozenset({"experiments", "workloads", "faults", "measure", "obs"}),
    "core": frozenset({"experiments", "workloads", "measure", "obs"}),
    "faults": frozenset({"experiments", "workloads", "measure", "obs"}),
    # measure and obs are handled by CTMS302 (observe-only) below.
}

#: What the observe-only ``measure`` package may never import.
MEASURE_FORBIDDEN: frozenset[str] = frozenset(
    {"drivers", "experiments", "workloads", "faults", "unix"}
)

#: What the observe-only ``obs`` package may never import.  Unlike
#: ``measure`` it may *not* reach ``obs``-adjacent actuators either; it is
#: allowed ``measure`` (it reuses the Histogram type) and the passive model
#: layers whose types it annotates.  Crucially: no ``experiments``.
OBS_FORBIDDEN: frozenset[str] = frozenset(
    {"drivers", "experiments", "workloads", "faults", "unix"}
)

#: CTMS302's per-package forbidden-import map.
OBSERVE_ONLY_FORBIDDEN: dict[str, frozenset[str]] = {
    "measure": MEASURE_FORBIDDEN,
    "obs": OBS_FORBIDDEN,
}

#: CTMS302's per-*module* forbidden-import map, for observe-only modules
#: living inside otherwise-unconstrained packages.  ``experiments/rollup``
#: loads journals other campaigns wrote and must not import an actuator
#: (it could re-run points).  This covers its own imports only; the kind
#: hooks it calls are held pure by ``test_rollup_only_reads_journals``.
#: ``obs/telemetry`` is already covered by the ``obs`` package rule and is
#: named here so the observe-only contract survives the module ever being
#: moved out of that package.
OBSERVE_ONLY_MODULE_SUFFIXES: dict[str, frozenset[str]] = {
    "repro/experiments/rollup.py": frozenset(
        {"core", "drivers", "workloads", "faults", "unix", "hardware",
         "ring", "protocols"}
    ),
    "repro/obs/telemetry.py": OBS_FORBIDDEN,
}

#: Module-level functions of :mod:`random` that mutate/read the shared
#: global RNG (the hidden-state hazard CTMS101 exists to catch).
GLOBAL_RANDOM_FUNCTIONS: frozenset[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "binomialvariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
        "getstate",
        "setstate",
        "getrandbits",
    }
)

#: Wall-clock reading (or blocking) functions of :mod:`time`.
WALL_CLOCK_TIME_FUNCTIONS: frozenset[str] = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: Wall-clock classmethods of :mod:`datetime` types.
WALL_CLOCK_DATETIME_METHODS: frozenset[str] = frozenset({"now", "utcnow", "today"})

#: Top-level modules that spawn/steer processes or threads.  CTMS303
#: confines their import (and, via the same home-module exemption, wall
#: clocks) to the one sanctioned home, ``repro/experiments/fleet.py``: the
#: campaign supervisor bridges the simulated clock domain and the host's.
PROCESS_MACHINERY_MODULES: frozenset[str] = frozenset(
    {"multiprocessing", "concurrent", "subprocess", "threading", "signal"}
)

#: Method/function names that *are* control-plane policy.  CTMS304 confines
#: their definition to ``repro/core/control.py`` (the session control
#: plane's sanctioned home): a second ``decide_admission`` in an experiment
#: forks the policy, and "which admission rule produced this campaign?"
#: stops having one answer.
CONTROL_POLICY_NAMES: frozenset[str] = frozenset(
    {"decide_admission", "select_server", "select_victims", "plan_failover"}
)

# ----------------------------------------------------------------------
# Whole-program (v2) vocabulary
# ----------------------------------------------------------------------

#: Functions of :mod:`os` that read entropy or the process environment --
#: taint sources for the interprocedural determinism inference (CTMS111/112)
#: that the per-file pass has no rule for.
OS_NONDETERMINISM_FUNCTIONS: frozenset[str] = frozenset(
    {"urandom", "getenv", "getrandom", "getpid", "times"}
)

#: Path suffixes of the sanctioned-home modules.  They are *boundaries* for
#: taint propagation: functions defined there are never reported impure, and
#: calls into them do not propagate impurity to the caller (sim/rng.py wraps
#: seeded streams; experiments/fleet.py is the one wall-clock bridge).
SANCTIONED_HOME_SUFFIXES: tuple[str, ...] = (
    "repro/sim/rng.py",
    "repro/experiments/fleet.py",
)

#: Which per-file rule an inline suppression must name to also cleanse the
#: matching taint *source* (an audited suppression is a sanction).  Sources
#: with no per-file rule (urandom/env) are cleansed by disable=CTMS111.
TAINT_SOURCE_RULES: dict[str, str] = {
    "wall-clock": "CTMS103",
    "global-random": "CTMS101",
    "unseeded-random": "CTMS102",
    "unordered-sched": "CTMS104",
    "os-entropy": "CTMS111",
    "env-read": "CTMS111",
}

#: Name-suffix conventions the unit dataflow seeds dimensions from.  Order
#: matters: longer suffixes are matched first (``_bps`` before ``_s``).
DIMENSION_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("bytes_per_sec", "Bps"),
    ("bits_per_sec", "bps"),
    ("_bps", "bps"),
    ("_ns", "ns"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_sec", "s"),
    ("_secs", "s"),
    ("_seconds", "s"),
    ("_bytes", "bytes"),
    ("nbytes", "bytes"),
    ("_bits", "bits"),
    ("_count", "count"),
)

#: Dimension families: mixing members of the *same* family (ns + s) is the
#: classic silent-scaling bug CTMS212 exists for; mixing across families
#: (bytes + ns) is flagged too when both sides are provably dimensioned.
TIME_DIMENSIONS: frozenset[str] = frozenset({"ns", "us", "ms", "s"})
DATA_DIMENSIONS: frozenset[str] = frozenset({"bytes", "bits"})
RATE_DIMENSIONS: frozenset[str] = frozenset({"Bps", "bps"})
