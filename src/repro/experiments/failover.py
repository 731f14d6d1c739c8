"""The failover chaos campaign: does a control plane save the streams?

The survival campaign (:mod:`repro.experiments.chaos`) hardens one stream
against fault weather; this campaign asks the scale-out question the
paper's single-server prototype left open.  Four clients ask three
replicated media servers for streams on a ring that can carry *two* of
them (each CTMSP stream's gross wire rate is ~167 KB/s against a 4 Mbit
segment), and halfway through the run ``server-a`` fail-stops.  Three
control modes face that identical demand and identical crash:

* ``none`` -- no control plane at all: every request lands first-fit on
  ``server-a`` (the naive deployment), oversubscribing both the ring and
  the station, then losing every stream when the server dies;
* ``admission`` -- the bandwidth-ledger control plane admits what fits
  (one stream per server station, two per ring segment) and queues the
  rest, but has no failover: the crash strands the session on the dead
  server;
* ``failover`` -- admission plus the watchdog: the stranded session
  re-establishes on the idle replica ``server-c`` from its sequence
  high-water mark, with a bounded delivery glitch.

The one-stream-per-station ledger budget is not arbitrary: a station's
per-frame service time (DMA fetch, token capture, circulation) is ~10 ms
against the 12 ms CTMSP period, so a second stream on the same adapter
oversubscribes the *station* even when the ring has headroom.  That is
why the deployment keeps a hot-spare replica instead of doubling up.

Every run is derived from the seed, so a campaign renders byte-identical
reports across repeats and across ``--jobs`` levels (the fleet harness
re-renders from journaled results in spec order).  The end of the module
is the ``failover`` fleet campaign kind: one point per (mode, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.control import ControlPlaneConfig, SessionControlPlane
from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig, Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.invariants import StreamInvariantMonitor
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC
from repro.workloads.churn import HOLD_FOREVER, ChurnDriver, ChurnSchedule

#: Control modes, in render order.
MODES = ("none", "admission", "failover")

#: The replicated media servers and the client population.
SERVERS = ("server-a", "server-b", "server-c")
CLIENTS = ("client-1", "client-2", "client-3", "client-4")

#: Source slots per server: enough for the whole client population, so the
#: ``none`` mode can physically pin every stream to one server.
SERVER_SLOTS = len(CLIENTS)

#: Slots the *control plane* will use per server: one.  A station's
#: per-frame service time is ~10 ms against the 12 ms CTMSP period, so a
#: second concurrent stream from the same adapter builds an unbounded
#: transmit backlog regardless of ring headroom.
CONTROL_SLOTS_PER_SERVER = 1

#: Invariants shared with the survival campaign.
MAX_INTERARRIVAL_NS = 150 * MS
MAX_LOSS_FRACTION = 0.01

#: The failover glitch budget: detection (~100 ms worst case) plus the
#: jittered backoff plus one establish handshake, with slack.
FAILOVER_GAP_BUDGET_NS = 600 * MS

#: Monitor-side storm budget: one establish round per failover.
MAX_FAILOVER_ROUNDS = 1


def build_churn(duration_ns: int) -> ChurnSchedule:
    """The demand every mode faces: four staggered arrivals, held forever.

    Hand-built rather than random so the scenario is legible: the point of
    the campaign is the *crash*, and a fixed arrival ramp makes the three
    modes' admission decisions directly comparable.
    """
    schedule = ChurnSchedule()
    for i, client in enumerate(CLIENTS):
        schedule.add(
            at_ns=(150 + 100 * i) * MS,
            client=client,
            duration_ns=HOLD_FOREVER,
        )
    return schedule


def build_crash_plan(duration_ns: int) -> FaultPlan:
    """One fail-stop crash of ``server-a`` halfway through the run."""
    return FaultPlan().server_crash(at_ns=duration_ns // 2, host=SERVERS[0])


def _build_testbed(seed: int) -> Testbed:
    bed = Testbed(seed=seed)
    for server in SERVERS:
        bed.add_host(HostConfig(name=server, vca_slots=SERVER_SLOTS))
    for client in CLIENTS:
        bed.add_host(HostConfig(name=client))
    return bed


def control_plane_config(mode: str) -> Optional[ControlPlaneConfig]:
    """The control plane each mode runs (``None`` for the baseline)."""
    if mode == "none":
        return None
    if mode == "admission":
        return ControlPlaneConfig(failover_enabled=False)
    if mode == "failover":
        return ControlPlaneConfig()
    raise ValueError(f"unknown mode {mode!r}; known: {MODES}")


@dataclass
class SessionOutcome:
    """One session's fate, JSON-safe for the fleet journal."""

    client: str
    decision: str
    state: str
    established: bool = False
    delivered: int = 0
    lost_packets: int = 0
    failovers: int = 0
    violated: list[str] = field(default_factory=list)

    def survived(self) -> bool:
        return self.established and not self.violated

    def verdict(self) -> str:
        if self.decision in ("queue", "reject"):
            return self.decision + "d"
        if not self.established:
            return "FAILED: never established"
        if self.violated:
            return "VIOLATED: " + ", ".join(self.violated)
        return "survived"

    def as_dict(self) -> dict:
        return {
            "client": self.client,
            "decision": self.decision,
            "state": self.state,
            "established": self.established,
            "delivered": self.delivered,
            "lost_packets": self.lost_packets,
            "failovers": self.failovers,
            "violated": list(self.violated),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionOutcome":
        return cls(
            client=data["client"],
            decision=data["decision"],
            state=data["state"],
            established=data["established"],
            delivered=data["delivered"],
            lost_packets=data["lost_packets"],
            failovers=data["failovers"],
            violated=list(data["violated"]),
        )


@dataclass
class FailoverRun:
    """One mode's fate under the shared churn and crash."""

    mode: str
    seed: int = 0
    churn_hash: str = ""
    plan_hash: str = ""
    sessions: list[SessionOutcome] = field(default_factory=list)
    #: Control-plane counter snapshot (empty for mode ``none``).
    control: dict = field(default_factory=dict)
    #: Calendar entries dispatched.
    events: int = 0

    def admitted(self) -> list[SessionOutcome]:
        return [s for s in self.sessions if s.decision == "admit"]

    def survived_count(self) -> int:
        return sum(1 for s in self.admitted() if s.survived())

    def survival_line(self) -> str:
        admitted = self.admitted()
        return f"{self.survived_count()}/{len(admitted)}"

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "churn_hash": self.churn_hash,
            "plan_hash": self.plan_hash,
            "sessions": [s.as_dict() for s in self.sessions],
            "control": dict(self.control),
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailoverRun":
        return cls(
            mode=data["mode"],
            seed=data["seed"],
            churn_hash=data["churn_hash"],
            plan_hash=data["plan_hash"],
            sessions=[
                SessionOutcome.from_dict(s) for s in data["sessions"]
            ],
            control=dict(data["control"]),
            events=data["events"],
        )


class _MonitorPool:
    """Attaches an invariant monitor to each session as it materializes.

    Control-plane sessions come into being lazily (on admission, or on a
    queue drain), so the pool sweeps on the control tick cadence and arms
    a monitor the first time a managed session carries a real
    :class:`~repro.core.session.CTMSSession`.  Managed sessions serve as
    the monitor's ``session`` (they delegate ``stats``/``sink_tracker``)
    *and* as its ``failover_source``, so delivery accounting stays
    continuous across server moves.
    """

    def __init__(self, bed: Testbed, plane: SessionControlPlane) -> None:
        self.bed = bed
        self.plane = plane
        self.monitors: dict[int, StreamInvariantMonitor] = {}

    def start(self) -> "_MonitorPool":
        self.bed.sim.schedule(self.plane.config.tick_ns, self._sweep)
        return self

    def _sweep(self) -> None:
        for ms in self.plane.sessions:
            if ms.session is None or ms.control_id in self.monitors:
                continue
            self.monitors[ms.control_id] = StreamInvariantMonitor(
                self.bed,
                ms,
                max_loss_fraction=MAX_LOSS_FRACTION,
                max_interarrival_ns=MAX_INTERARRIVAL_NS,
                failover_source=ms,
                failover_gap_budget_ns=FAILOVER_GAP_BUDGET_NS,
                max_failover_rounds=MAX_FAILOVER_ROUNDS,
            ).start()
        self.bed.sim.schedule(self.plane.config.tick_ns, self._sweep)


def _run_controlled(
    mode: str, bed: Testbed, duration_ns: int
) -> tuple[list[SessionOutcome], dict]:
    """Run a control-plane mode; returns per-session outcomes."""
    plane = SessionControlPlane(bed, config=control_plane_config(mode))
    for server in SERVERS:
        plane.register_server(server, slots=CONTROL_SLOTS_PER_SERVER)
    plane.start()
    driver = ChurnDriver(bed, plane, build_churn(duration_ns)).arm()
    pool = _MonitorPool(bed, plane).start()
    bed.run(duration_ns)
    plane.stop()
    plane.finish()
    outcomes = []
    for ms in plane.sessions:
        outcome = SessionOutcome(
            client=ms.client, decision=ms.decision, state=ms.state
        )
        monitor = pool.monitors.get(ms.control_id)
        if ms.session is not None:
            outcome.established = bool(
                ms.session.established is not None
                and ms.session.established.triggered
                and ms.session.established.ok
            )
            outcome.delivered = ms.sink_tracker.delivered
            outcome.lost_packets = ms.sink_tracker.lost_packets
        outcome.failovers = len(ms.failovers)
        if monitor is not None:
            monitor.finish()
            outcome.violated = monitor.violated()
        outcomes.append(outcome)
    return outcomes, plane.snapshot()


def _run_uncontrolled(
    bed: Testbed, duration_ns: int
) -> list[SessionOutcome]:
    """The ``none`` baseline: first-fit everything onto the first server.

    Deliberately policy-free (this is the *absence* of a control plane):
    each arrival takes the next source slot on ``server-a`` in arrival
    order, establishes, and is never watched, shed, or failed over.
    """
    source = bed.hosts[SERVERS[0]]
    sessions: list[tuple[str, CTMSSession]] = []
    monitors: list[StreamInvariantMonitor] = []

    def arrive(slot: int, client: str) -> None:
        session = CTMSSession(
            source.kernel,
            bed.hosts[client].kernel,
            source_vca_device=f"vca{slot}",
            sink_vca_device="vca0",
        )
        session.establish()
        sessions.append((client, session))
        monitors.append(
            StreamInvariantMonitor(
                bed,
                session,
                max_loss_fraction=MAX_LOSS_FRACTION,
                max_interarrival_ns=MAX_INTERARRIVAL_NS,
            ).start()
        )

    for slot, request in enumerate(build_churn(duration_ns).sorted_requests()):
        bed.sim.schedule(request.at_ns, arrive, slot, request.client)
    bed.run(duration_ns)
    outcomes = []
    for (client, session), monitor in zip(sessions, monitors):
        monitor.finish()
        outcomes.append(
            SessionOutcome(
                client=client,
                decision="admit",  # nothing said no
                state="streaming" if monitor.ok() else "stranded",
                established=bool(
                    session.established is not None
                    and session.established.triggered
                    and session.established.ok
                ),
                delivered=session.sink_tracker.delivered,
                lost_packets=session.sink_tracker.lost_packets,
                violated=monitor.violated(),
            )
        )
    return outcomes


def run_failover_one(
    mode: str,
    seed: int,
    duration_ns: int,
) -> FailoverRun:
    """Run one mode under the shared churn + crash on a fresh testbed."""
    churn = build_churn(duration_ns)
    plan = build_crash_plan(duration_ns)
    bed = _build_testbed(seed)
    FaultInjector(bed, plan).arm()
    run = FailoverRun(
        mode=mode,
        seed=seed,
        churn_hash=churn.stable_hash(),
        plan_hash=plan.stable_hash(),
    )
    if mode == "none":
        run.sessions = _run_uncontrolled(bed, duration_ns)
    else:
        run.sessions, run.control = _run_controlled(mode, bed, duration_ns)
    run.events = bed.sim.stats_events
    return run


@dataclass
class FailoverReport:
    """A full campaign: every control mode against the same crash."""

    seed: int
    duration_ns: int
    modes: tuple[str, ...] = MODES
    runs: list[FailoverRun] = field(default_factory=list)

    def run_for(self, mode: str) -> Optional[FailoverRun]:
        for run in self.runs:
            if run.mode == mode:
                return run
        return None

    def render(self) -> str:
        """Deterministic text report (same seed -> identical bytes)."""
        lines = [
            "Failover chaos: identical churn + server crash vs control modes",
            f"seed {self.seed}, {self.duration_ns / SEC:.3f} s per run, "
            f"crash at {self.duration_ns / 2 / SEC:.3f} s, "
            f"glitch budget {FAILOVER_GAP_BUDGET_NS / MS:.0f} ms",
        ]
        for mode in self.modes:
            run = self.run_for(mode)
            if run is None:
                continue
            lines.append("")
            lines.append(f"mode {mode}  (plan {run.plan_hash})")
            for s in run.sessions:
                lines.append(
                    f"  {s.client:<10} {s.decision:<7} "
                    f"delivered {s.delivered:>5}  lost {s.lost_packets:>4}  "
                    f"failovers {s.failovers}  {s.verdict()}"
                )
            if run.control:
                c = run.control
                lines.append(
                    f"  control: admitted {c['admitted']} "
                    f"queued {c['queued']} rejected {c['rejected']} "
                    f"failovers {c['failovers']} stranded {c['stranded']}"
                )
        lines.append("")
        totals = ", ".join(
            f"{mode} {run.survival_line()}"
            for mode in self.modes
            for run in [self.run_for(mode)]
            if run is not None
        )
        lines.append(f"admitted sessions surviving the crash: {totals}")
        return "\n".join(lines)


def run_failover_campaign(
    seed: int = 1,
    duration_ns: int = 6 * SEC,
    modes: tuple[str, ...] = MODES,
) -> FailoverReport:
    """Sweep the control-mode axis; all modes face the identical crash."""
    report = FailoverReport(
        seed=seed, duration_ns=duration_ns, modes=tuple(modes)
    )
    for mode in report.modes:
        report.runs.append(run_failover_one(mode, seed, duration_ns))
    return report


def run_failover_smoke(seed: int = 1, duration_ns: int = 4 * SEC) -> FailoverReport:
    """A fast campaign for test suites and ``make chaos``."""
    return run_failover_campaign(seed=seed, duration_ns=duration_ns)


# ----------------------------------------------------------------------
# the "failover" fleet campaign kind (see repro.experiments.fleet)
# ----------------------------------------------------------------------
def failover_fleet_spec(
    seeds: list[int] | range,
    duration_ns: int = 6 * SEC,
    modes: Optional[tuple[str, ...]] = None,
):
    """The control-plane failover campaign over a seed population.

    One point per (mode, seed): every mode faces the identical churn and
    the identical mid-run server crash, so the per-seed triple renders a
    direct survival comparison.
    """
    from repro.experiments.fleet import FleetPoint, FleetSpec

    seeds = list(seeds)
    mode_list = tuple(modes) if modes else MODES
    churn_hash = build_churn(duration_ns).stable_hash()
    plan_hash = build_crash_plan(duration_ns).stable_hash()
    points = []
    for seed in seeds:
        for mode in mode_list:
            points.append(
                FleetPoint(
                    task_hash=f"{plan_hash}.{churn_hash}.{mode}",
                    seed=seed,
                    profile=mode,
                    params={
                        "mode": mode,
                        "seed": seed,
                        "duration_ns": duration_ns,
                    },
                    label=f"failover mode {mode} seed {seed}",
                    replay=(
                        f"python -m repro chaos --scenario failover "
                        f"--seed {seed} "
                        f"--seconds {max(1, duration_ns // SEC)}"
                    ),
                )
            )
    return FleetSpec(
        kind="failover",
        points=points,
        meta={
            "seeds": seeds,
            "duration_ns": duration_ns,
            "modes": list(mode_list),
        },
    )


def run_point(params: dict) -> dict:
    """One fleet point: a control mode at one seed, as a JSON-safe dict."""
    run = run_failover_one(
        params["mode"], params["seed"], params["duration_ns"]
    )
    return run.as_dict()


def _run_totals(run: FailoverRun) -> dict:
    """Session totals of one journalled run, in table column order."""
    admitted = run.admitted()
    return {
        "requests": len(run.sessions),
        "admitted": len(admitted),
        "survived": run.survived_count(),
        "lost_streams": sum(1 for s in admitted if not s.survived()),
        "failovers": sum(s.failovers for s in run.sessions),
        "lost_packets": sum(s.lost_packets for s in run.sessions),
    }


def render_fleet(spec, results: dict[str, dict]) -> str:
    """The merged per-seed survival table, in spec order."""
    from repro.obs.metrics import format_table

    modes = spec.meta["modes"]
    duration_ns = spec.meta["duration_ns"]
    lines = [
        "Fleet failover chaos: control modes vs a mid-campaign crash",
        f"{len(spec.meta['seeds'])} seed(s), {duration_ns / SEC:.3f} s "
        f"per run, crash at {duration_ns / 2 / SEC:.3f} s",
        "",
    ]
    rows = []
    totals = {mode: [0, 0] for mode in modes}  # survived, admitted
    for point in spec.points:
        record = results.get(point.key)
        if record is None:
            continue
        run = FailoverRun.from_dict(record["result"])
        t = _run_totals(run)
        totals[run.mode][0] += t["survived"]
        totals[run.mode][1] += t["admitted"]
        rows.append(
            [
                str(run.seed),
                run.mode,
                str(t["requests"]),
                str(t["admitted"]),
                f"{t['survived']}/{t['admitted']}",
                str(t["lost_streams"]),
                str(t["failovers"]),
                str(t["lost_packets"]),
            ]
        )
    lines.append(
        format_table(
            "per-seed survival",
            [
                "seed",
                "mode",
                "requests",
                "admitted",
                "survived",
                "lost streams",
                "failovers",
                "lost pkts",
            ],
            rows,
        )
    )
    lines.append("")
    lines.append(
        "admitted sessions surviving: "
        + ", ".join(
            f"{mode} {totals[mode][0]}/{totals[mode][1]}" for mode in modes
        )
    )
    return "\n".join(lines)


def rollup(results: list[dict]) -> dict:
    """Per-mode session totals across every journalled seed, in
    :data:`MODES` order.  ``events`` (calendar entries) is left out: it
    counts simulator work, not what the sessions got."""
    by_mode: dict[str, dict] = {}
    for r in results:
        run = FailoverRun.from_dict(r)
        row = by_mode.setdefault(run.mode, {"mode": run.mode, "runs": 0})
        row["runs"] += 1
        for name, value in _run_totals(run).items():
            row[name] = row.get(name, 0) + value
    return {"failover": [by_mode[mode] for mode in MODES if mode in by_mode]}


def render_rollup(summary: dict) -> str:
    """The per-mode totals table."""
    from repro.obs.metrics import format_table

    return format_table(
        "Failover rollup (totals across seeds)",
        [
            "mode",
            "runs",
            "requests",
            "admitted",
            "survived",
            "lost streams",
            "failovers",
            "lost pkts",
        ],
        [[str(value) for value in row.values()] for row in summary["failover"]],
    )
