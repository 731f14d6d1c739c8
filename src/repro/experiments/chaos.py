"""Chaos campaigns: stock vs CTMS under seeded random fault weather.

The paper hardened one stream against one environment (Ring Purges every
couple of minutes, the occasional station insertion).  A chaos campaign
asks the stronger question: across *randomly generated but reproducible*
fault schedules of increasing intensity, which configuration keeps its
invariants?  Two profiles face identical plans:

* ``stock`` -- the Section 1 starting point: no IO Channel Memory fixed
  buffers, no driver priority queueing, ring priority 0, headers rebuilt
  per packet;
* ``ctmsp`` -- the paper's shipped configuration (all of the above on).

Each (intensity, profile) run gets a fresh testbed with the same seed, the
same :class:`~repro.faults.plan.FaultPlan` (built once per intensity), a
:class:`~repro.faults.invariants.StreamInvariantMonitor`, and a survival
verdict.  Everything is derived from the seed -- two campaigns with the
same seed render byte-identical reports.  The end of the module is the
``chaos`` fleet campaign kind: the same runs over a seed population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig, Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.invariants import StreamInvariantMonitor
from repro.faults.plan import FaultPlan
from repro.sim.rng import seeded_stream
from repro.sim.units import MS, SEC

#: The paper's Section 6 target rate the survivors must sustain.
SURVIVAL_THROUGHPUT_BYTES_PER_SEC = 150_000.0

#: Delivery-gap bound (comfortably above the 120-130 ms insertion outliers
#: the paper tolerated, well below anything perceptually catastrophic).
SURVIVAL_MAX_INTERARRIVAL_NS = 150 * MS

#: Loss bound: the level the paper "decided that we could safely ignore".
SURVIVAL_MAX_LOSS_FRACTION = 0.01

PROFILES = ("stock", "ctmsp")

DEFAULT_INTENSITIES = (0.5, 1.0, 2.0)

#: Hosts every campaign testbed assembles (and plans may wound).
TX_HOST = "transmitter"
RX_HOST = "receiver"


def profile_host_config(profile: str, name: str) -> HostConfig:
    """Host configuration for one campaign profile."""
    if profile == "ctmsp":
        return HostConfig(name=name)
    if profile == "stock":
        config = HostConfig(name=name, has_io_channel_memory=False)
        config.tr.use_io_channel_memory = False
        config.tr.ctmsp_priority_queueing = False
        config.tr.ctmsp_ring_priority = 0
        config.vca.precomputed_header = False
        return config
    raise ValueError(f"unknown profile {profile!r}; known: {PROFILES}")


def plan_seed(seed: int, intensity: float) -> int:
    """Derive the per-intensity plan seed (stable across profiles)."""
    return seed * 100_003 + round(intensity * 1000)


def build_plan(seed: int, intensity: float, duration_ns: int) -> FaultPlan:
    """The one plan both profiles face at this intensity.

    ``seeded_stream`` wraps the same ``random.Random(plan_seed(...))``
    construction this module used before the lint rules landed, so
    campaign output is seed-for-seed identical (see the golden-report
    test) while keeping raw RNG construction inside ``sim/rng.py``.
    """
    rng = seeded_stream(plan_seed(seed, intensity))
    return FaultPlan.random(
        rng,
        duration_ns=duration_ns,
        intensity=intensity,
        hosts=[TX_HOST, RX_HOST],
    )


class ChaosPointError(RuntimeError):
    """A chaos point died mid-run.

    Raised by :func:`run_one` in place of whatever the testbed threw, so a
    worker's failure always names the *replayable coordinates* of the point
    -- ``(plan_hash, seed)`` plus profile and intensity -- rather than
    surfacing a bare traceback with no way back to the run that caused it.
    The original exception rides along as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        plan_hash: str,
        seed: int,
        profile: str,
        intensity: float,
    ) -> None:
        super().__init__(message)
        self.plan_hash = plan_hash
        self.seed = seed
        self.profile = profile
        self.intensity = intensity


@dataclass
class ChaosRun:
    """One profile's fate under one plan."""

    profile: str
    intensity: float
    delivered: int = 0
    lost_packets: int = 0
    throughput_bytes_per_sec: float = 0.0
    setup_attempts: int = 0
    established: bool = False
    #: Invariant names broken, in first-detection order.
    violated: list[str] = field(default_factory=list)
    #: Full violation records (first-violation snapshots).
    violations: list = field(default_factory=list)
    #: Replay coordinates: the testbed seed and the plan's content hash.
    seed: int = 0
    plan_hash: str = ""
    #: Calendar entries the run's simulator dispatched (perf trajectory).
    events: int = 0

    def survived(self) -> bool:
        return self.established and not self.violated

    def verdict(self) -> str:
        if not self.established:
            return "FAILED: session never established"
        if self.violated:
            return "VIOLATED: " + ", ".join(self.violated)
        return "survived"

    def as_dict(self) -> dict:
        """JSON-safe view for the fleet journal.

        The full ``violations`` records (which hold snapshot objects) stay
        behind; ``violated`` carries the invariant names, which is all any
        report renders.
        """
        return {
            "profile": self.profile,
            "intensity": self.intensity,
            "delivered": self.delivered,
            "lost_packets": self.lost_packets,
            "throughput_bytes_per_sec": self.throughput_bytes_per_sec,
            "setup_attempts": self.setup_attempts,
            "established": self.established,
            "violated": list(self.violated),
            "seed": self.seed,
            "plan_hash": self.plan_hash,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosRun":
        return cls(
            profile=data["profile"],
            intensity=data["intensity"],
            delivered=data["delivered"],
            lost_packets=data["lost_packets"],
            throughput_bytes_per_sec=data["throughput_bytes_per_sec"],
            setup_attempts=data["setup_attempts"],
            established=data["established"],
            violated=list(data["violated"]),
            seed=data.get("seed", 0),
            plan_hash=data.get("plan_hash", ""),
            events=data.get("events", 0),
        )


def run_one(
    profile: str,
    plan: FaultPlan,
    seed: int,
    duration_ns: int,
    intensity: float = 0.0,
    flight_recorder=None,
) -> ChaosRun:
    """Run one profile under one fault plan on a fresh testbed.

    ``flight_recorder`` (a :class:`repro.obs.flight.FlightRecorder`) rides
    on the testbed; the invariant monitor snapshots through it at the first
    violation of each invariant.  It never alters the run itself.

    Any exception out of the testbed is re-raised as
    :class:`ChaosPointError` carrying the point's replayable
    ``(plan_hash, seed)`` coordinates, so a campaign worker's failure
    report always says *which run* to replay.
    """
    plan_hash = plan.stable_hash()
    try:
        bed = Testbed(seed=seed)
        bed.flight_recorder = flight_recorder
        tx = bed.add_host(profile_host_config(profile, TX_HOST))
        rx = bed.add_host(profile_host_config(profile, RX_HOST))
        session = CTMSSession(tx.kernel, rx.kernel)
        session.establish()
        monitor = StreamInvariantMonitor(
            bed,
            session,
            max_loss_fraction=SURVIVAL_MAX_LOSS_FRACTION,
            max_interarrival_ns=SURVIVAL_MAX_INTERARRIVAL_NS,
            min_throughput_bytes_per_sec=SURVIVAL_THROUGHPUT_BYTES_PER_SEC,
        ).start()
        FaultInjector(bed, plan).arm()
        bed.run(duration_ns)
        violations = monitor.finish()
    except Exception as exc:
        raise ChaosPointError(
            f"chaos point (plan {plan_hash}, seed {seed}) failed: "
            f"profile {profile}, intensity {intensity:.2f}: "
            f"{type(exc).__name__}: {exc}",
            plan_hash=plan_hash,
            seed=seed,
            profile=profile,
            intensity=intensity,
        ) from exc
    run = ChaosRun(
        profile=profile, intensity=intensity, seed=seed, plan_hash=plan_hash
    )
    run.established = bool(
        session.established is not None
        and session.established.triggered
        and session.error is None
    )
    run.setup_attempts = session.setup_attempts
    run.delivered = session.sink_tracker.delivered
    run.lost_packets = session.sink_tracker.lost_packets
    run.throughput_bytes_per_sec = session.stats.throughput_bytes_per_sec()
    run.violations = violations
    run.violated = monitor.violated()
    run.events = bed.sim.stats_events
    return run


@dataclass
class SurvivalReport:
    """A full campaign: every profile at every intensity."""

    seed: int
    duration_ns: int
    intensities: tuple[float, ...]
    plans: dict[float, FaultPlan] = field(default_factory=dict)
    runs: list[ChaosRun] = field(default_factory=list)

    def runs_for(self, profile: str) -> list[ChaosRun]:
        return [r for r in self.runs if r.profile == profile]

    def survived_count(self, profile: str) -> int:
        return sum(1 for r in self.runs_for(profile) if r.survived())

    def render(self) -> str:
        """Deterministic text report (same seed -> identical bytes)."""
        lines = [
            "Chaos survival: identical fault plans vs stock and CTMSP",
            f"seed {self.seed}, {self.duration_ns / SEC:.3f} s per run, "
            f"invariants: loss <= {SURVIVAL_MAX_LOSS_FRACTION * 100:.2f}%, "
            f"gap <= {SURVIVAL_MAX_INTERARRIVAL_NS / MS:.0f} ms, "
            f">= {SURVIVAL_THROUGHPUT_BYTES_PER_SEC / 1000:.1f} KB/s",
        ]
        for intensity in self.intensities:
            plan = self.plans[intensity]
            lines.append("")
            lines.append(
                f"intensity {intensity:.2f}  ({len(plan)} fault events)"
            )
            for run in self.runs:
                if run.intensity != intensity:
                    continue
                lines.append(
                    f"  {run.profile:<6} delivered {run.delivered:>5}  "
                    f"lost {run.lost_packets:>4}  "
                    f"{run.throughput_bytes_per_sec / 1000:6.1f} KB/s  "
                    f"{run.verdict()}"
                )
        lines.append("")
        totals = ", ".join(
            f"{p} {self.survived_count(p)}/{len(self.intensities)}"
            for p in PROFILES
        )
        lines.append(f"survived: {totals}")
        return "\n".join(lines)


def run_campaign(
    seed: int = 1,
    duration_ns: int = 8 * SEC,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
) -> SurvivalReport:
    """Sweep the intensity axis; both profiles face identical plans."""
    report = SurvivalReport(
        seed=seed, duration_ns=duration_ns, intensities=tuple(intensities)
    )
    for intensity in report.intensities:
        plan = build_plan(seed, intensity, duration_ns)
        report.plans[intensity] = plan
        for profile in PROFILES:
            report.runs.append(
                run_one(profile, plan, seed, duration_ns, intensity=intensity)
            )
    return report


def run_smoke(seed: int = 1, duration_ns: int = 4 * SEC) -> SurvivalReport:
    """A fast single-intensity campaign for test suites and `make chaos`."""
    return run_campaign(
        seed=seed, duration_ns=duration_ns, intensities=(2.0,)
    )


# ----------------------------------------------------------------------
# the "chaos" fleet campaign kind (see repro.experiments.fleet)
# ----------------------------------------------------------------------
def chaos_fleet_spec(
    seeds: list[int] | range,
    duration_ns: int = 8 * SEC,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
):
    """Chaos survival over a seed population instead of one anecdote."""
    from repro.experiments.fleet import FleetPoint, FleetSpec

    seeds = list(seeds)
    points = []
    for intensity in intensities:
        for seed in seeds:
            plan_hash = build_plan(seed, intensity, duration_ns).stable_hash()
            for profile in PROFILES:
                points.append(
                    FleetPoint(
                        task_hash=f"{plan_hash}.{profile}",
                        seed=seed,
                        profile=profile,
                        params={
                            "seed": seed,
                            "profile": profile,
                            "intensity": intensity,
                            "duration_ns": duration_ns,
                        },
                        label=(
                            f"chaos plan {plan_hash} seed {seed} "
                            f"profile {profile} intensity {intensity:.2f}"
                        ),
                        replay=(
                            f"python -m repro chaos --seed {seed} "
                            f"--seconds {max(1, duration_ns // SEC)} "
                            f"--intensities {intensity:g}"
                        ),
                    )
                )
    return FleetSpec(
        kind="chaos",
        points=points,
        meta={
            "seeds": seeds,
            "duration_ns": duration_ns,
            "intensities": list(intensities),
        },
    )


def run_point(params: dict) -> dict:
    """One fleet point: a profile under its plan, as a JSON-safe dict."""
    plan = build_plan(
        params["seed"], params["intensity"], params["duration_ns"]
    )
    run = run_one(
        params["profile"],
        plan,
        params["seed"],
        params["duration_ns"],
        intensity=params["intensity"],
    )
    return run.as_dict()


def _cell(runs: list[dict]) -> dict:
    """Totals of one (intensity, profile) cell, summed in ``runs`` order."""
    return {
        "runs": len(runs),
        "established": sum(1 for r in runs if r.get("established")),
        "survived": sum(
            1 for r in runs if r.get("established") and not r.get("violated")
        ),
        "delivered": sum(int(r.get("delivered", 0)) for r in runs),
        "lost": sum(int(r.get("lost_packets", 0)) for r in runs),
        "mean_throughput_bytes_per_sec": sum(
            float(r.get("throughput_bytes_per_sec", 0.0)) for r in runs
        )
        / len(runs),
    }


def render_fleet(spec, results: dict[str, dict]) -> str:
    """The merged survival report, in spec order."""
    from repro.obs.metrics import format_table

    duration_ns = spec.meta["duration_ns"]
    seeds = spec.meta["seeds"]
    lines = [
        "Fleet chaos survival: identical fault plans vs stock and CTMSP",
        f"{len(seeds)} seed(s), {duration_ns / SEC:.3f} s per run, "
        f"invariants: loss <= {SURVIVAL_MAX_LOSS_FRACTION * 100:.2f}%, "
        f"gap <= {SURVIVAL_MAX_INTERARRIVAL_NS / MS:.0f} ms, "
        f">= {SURVIVAL_THROUGHPUT_BYTES_PER_SEC / 1000:.1f} KB/s",
    ]
    totals = {profile: [0, 0] for profile in PROFILES}  # survived, counted
    for intensity in spec.meta["intensities"]:
        lines.append("")
        rows = []
        for profile in PROFILES:
            runs = []
            for point in spec.points:
                if (
                    point.profile == profile
                    and point.params["intensity"] == intensity
                    and point.key in results
                ):
                    runs.append(results[point.key]["result"])
            if not runs:
                rows.append([profile, "0", "-", "-", "-", "-", "-"])
                continue
            cell = _cell(runs)
            totals[profile][0] += cell["survived"]
            totals[profile][1] += cell["runs"]
            rows.append(
                [
                    profile,
                    str(cell["runs"]),
                    str(cell["established"]),
                    str(cell["survived"]),
                    str(cell["delivered"]),
                    str(cell["lost"]),
                    f"{cell['mean_throughput_bytes_per_sec'] / 1000:.1f}",
                ]
            )
        lines.append(
            format_table(
                f"intensity {intensity:.2f}",
                [
                    "profile",
                    "points",
                    "established",
                    "survived",
                    "delivered",
                    "lost",
                    "mean KB/s",
                ],
                rows,
            )
        )
    lines.append("")
    lines.append(
        "survived: "
        + ", ".join(
            f"{profile} {totals[profile][0]}/{totals[profile][1]}"
            for profile in PROFILES
        )
    )
    return "\n".join(lines)


def _profile_rank(profile: str) -> tuple[int, str]:
    """Sort key: :data:`PROFILES` order (stock first), unknown names last."""
    order = PROFILES.index(profile) if profile in PROFILES else len(PROFILES)
    return order, profile


def rollup(results: list[dict]) -> dict:
    """Survival surface, violation counts and delivered quality across
    every journalled chaos run (the Media-TCP-style judging metric:
    which profile *delivers* under contention, totalled over campaigns).

    ``results`` arrive in campaign-id, then point-key order; every sum
    runs in that order.  Cells are intensity-ascending, then
    :data:`PROFILES` order -- never completion order.
    """
    cells: dict[tuple[float, str], list[dict]] = {}
    by_profile: dict[str, list[dict]] = {}
    violations: dict[str, int] = {}
    for r in results:
        profile = str(r["profile"])
        cells.setdefault((float(r["intensity"]), profile), []).append(r)
        by_profile.setdefault(profile, []).append(r)
        # A run that broke an invariant counts once per invariant.
        for name in r.get("violated", ()):
            violations[name] = violations.get(name, 0) + 1
    surface = []
    for intensity, profile in sorted(
        cells, key=lambda k: (k[0], *_profile_rank(k[1]))
    ):
        cell = {"intensity": intensity, "profile": profile}
        cell.update(_cell(cells[intensity, profile]))
        cell["survival_rate"] = cell["survived"] / cell["runs"]
        surface.append(cell)
    quality = []
    for profile in sorted(by_profile, key=_profile_rank):
        runs = by_profile[profile]
        cell = _cell(runs)
        total = cell["delivered"] + cell["lost"]
        quality.append(
            {
                "profile": profile,
                "runs": cell["runs"],
                "delivered": cell["delivered"],
                "lost": cell["lost"],
                "underruns": sum(
                    1 for r in runs if "playout_underrun" in r.get("violated", ())
                ),
                "loss_fraction": cell["lost"] / total if total else 0.0,
                "mean_throughput_bytes_per_sec": cell["mean_throughput_bytes_per_sec"],
                "min_throughput_bytes_per_sec": min(
                    float(r.get("throughput_bytes_per_sec", 0.0)) for r in runs
                ),
            }
        )
    return {
        "survival_surface": surface,
        "violations": dict(sorted(violations.items())),
        "quality": quality,
    }


def render_rollup(summary: dict) -> str:
    """The three chaos rollup tables."""
    from repro.obs.metrics import format_table

    surface = format_table(
        "Survival surface (all chaos campaigns)",
        [
            "intensity",
            "profile",
            "runs",
            "established",
            "survived",
            "rate",
            "delivered",
            "lost",
            "mean KB/s",
        ],
        [
            [
                f"{cell['intensity']:.2f}",
                cell["profile"],
                str(cell["runs"]),
                str(cell["established"]),
                str(cell["survived"]),
                f"{cell['survival_rate'] * 100:.0f}%",
                str(cell["delivered"]),
                str(cell["lost"]),
                f"{cell['mean_throughput_bytes_per_sec'] / 1000:.1f}",
            ]
            for cell in summary["survival_surface"]
        ],
    )
    violations = format_table(
        "Invariant violations (runs that broke each invariant)",
        ["invariant", "runs"],
        [[name, str(count)] for name, count in summary["violations"].items()]
        or [["(none)", "0"]],
    )
    quality = format_table(
        "Delivered quality by profile",
        [
            "profile",
            "runs",
            "delivered",
            "lost",
            "loss",
            "underruns",
            "mean KB/s",
            "min KB/s",
        ],
        [
            [
                row["profile"],
                str(row["runs"]),
                str(row["delivered"]),
                str(row["lost"]),
                f"{row['loss_fraction'] * 100:.2f}%",
                str(row["underruns"]),
                f"{row['mean_throughput_bytes_per_sec'] / 1000:.1f}",
                f"{row['min_throughput_bytes_per_sec'] / 1000:.1f}",
            ]
            for row in summary["quality"]
        ],
    )
    return "\n\n".join([surface, violations, quality])
