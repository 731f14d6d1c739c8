"""Supervised parallel campaign fleet: shard, retry, journal, merge.

Chaos campaigns, ablation matrices, and model-validation sweeps are
embarrassingly parallel across ``(seed, profile, intensity)`` points, but a
naive pool dies wholesale on the first worker exception and loses hours of
completed results to one Ctrl-C.  This module is the robust runner the
robustness stack deserves:

* **sharding** -- a :class:`FleetSpec` enumerates every point of a campaign
  in a deterministic order; workers execute points in whatever order the
  scheduler dictates;
* **supervision** -- worker processes are watched with per-point deadlines;
  a crashed worker (SIGKILL, OOM) or a hung worker (killed by the
  supervisor at the deadline) costs one attempt, never the campaign;
* **bounded-backoff retry** -- failed or hung points are re-dispatched with
  the doubling-to-a-cap backoff shape of
  :meth:`repro.core.session.CTMSSession.establish`;
* **crash-safe journal** -- every completed point is appended (flushed and
  fsynced) to an on-disk JSONL journal keyed by ``(plan_hash, seed)``;
  ``resume=True`` replays nothing that already finished, so a killed
  campaign continues where it stopped;
* **graceful degradation** -- a point that exhausts its retries becomes an
  explicit ``FAILED POINTS`` section with a replayable command per point;
  the campaign still completes and still renders;
* **deterministic merge** -- the report is assembled from the spec's point
  order and the journalled result dicts, never from completion order, so
  ``jobs=1``, ``jobs=4``, and a killed-then-resumed run render
  byte-identical reports (a golden test pins this).

This is deliberately the *one* module in ``repro`` that may touch process
machinery and the host clock -- ctms-lint rule CTMS303 confines
``multiprocessing``/``subprocess``/``threading``/``signal`` imports and
wall-clock reads to this file.  Everything below the fleet remains on the
simulated clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.experiments.reporting import failed_points_section, format_table
from repro.faults.workers import WorkerFaultError, WorkerFaultSpec
from repro.obs import fleetstats
from repro.obs import telemetry as obs_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import SEC, from_sec, to_ms

#: Journal schema version (bump on incompatible record changes).
JOURNAL_VERSION = 1

#: Campaign kinds the fleet knows how to run.
KINDS = ("chaos", "ablation", "validation", "failover")


# ----------------------------------------------------------------------
# points and specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetPoint:
    """One unit of campaign work.

    ``key`` -- ``"<task_hash>:<seed>"`` -- is the journal key: stable
    across processes, runs, and resumes.  For chaos points ``task_hash``
    is the fault plan's content hash plus the profile, so a result is
    reused exactly when the same weather would hit the same configuration
    with the same seed.  ``params`` must stay JSON- and pickle-safe; the
    worker rebuilds everything heavy (plans, testbeds) from them.
    """

    kind: str
    key: str
    task_hash: str
    seed: int
    params: dict[str, Any]
    label: str
    replay: str
    #: Profile name for worker-fault matching ("" when not applicable).
    profile: str = ""


@dataclass
class FleetSpec:
    """A full campaign: ordered points plus render metadata."""

    kind: str
    points: list[FleetPoint]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fleet kind {self.kind!r}; known: {KINDS}")
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate point keys in fleet spec")

    def campaign_id(self) -> str:
        """Content hash naming this campaign's journal directory."""
        h = hashlib.sha256(self.kind.encode())
        for point in self.points:
            h.update(point.key.encode())
            h.update(b"\0")
        return h.hexdigest()[:12]


def chaos_fleet_spec(
    seeds: list[int] | range,
    duration_ns: int = 8 * SEC,
    intensities: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> FleetSpec:
    """Chaos survival over a seed population instead of one anecdote."""
    from repro.experiments.chaos import PROFILES, build_plan

    seeds = list(seeds)
    if not seeds:
        raise ValueError("chaos fleet needs at least one seed")
    points: list[FleetPoint] = []
    for intensity in intensities:
        for seed in seeds:
            plan_hash = build_plan(seed, intensity, duration_ns).stable_hash()
            for profile in PROFILES:
                task_hash = f"{plan_hash}.{profile}"
                points.append(
                    FleetPoint(
                        kind="chaos",
                        key=f"{task_hash}:{seed}",
                        task_hash=task_hash,
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


def ablation_fleet_spec(
    duration_ns: int,
    seeds: list[int] | range = (1,),
    variants: Optional[list[str]] = None,
) -> FleetSpec:
    """The Section 5.3 one-switch-at-a-time matrix, sharded per variant."""
    from repro.experiments.ablations import matrix_variants

    seeds = list(seeds)
    names = variants or list(matrix_variants(duration_ns, seeds[0]))
    points: list[FleetPoint] = []
    for name in names:
        task_hash = hashlib.sha256(
            f"ablation\0{name}\0{duration_ns}".encode()
        ).hexdigest()[:12]
        for seed in seeds:
            points.append(
                FleetPoint(
                    kind="ablation",
                    key=f"{task_hash}:{seed}",
                    task_hash=task_hash,
                    seed=seed,
                    params={
                        "variant": name,
                        "duration_ns": duration_ns,
                        "seed": seed,
                    },
                    label=f"ablation {name!r} seed {seed}",
                    replay=(
                        f"python -m repro ablate "
                        f"--seconds {max(1, duration_ns // SEC)} --seed {seed}"
                    ),
                )
            )
    return FleetSpec(
        kind="ablation",
        points=points,
        meta={"duration_ns": duration_ns, "seeds": seeds, "variants": names},
    )


def validation_fleet_spec(
    seeds: list[int] | range, n_frames: int = 60
) -> FleetSpec:
    """Lazy-vs-detailed ring agreement over a seed population."""
    seeds = list(seeds)
    task_hash = hashlib.sha256(
        f"validation\0{n_frames}".encode()
    ).hexdigest()[:12]
    points = [
        FleetPoint(
            kind="validation",
            key=f"{task_hash}:{seed}",
            task_hash=task_hash,
            seed=seed,
            params={"seed": seed, "n_frames": n_frames},
            label=f"validation seed {seed} ({n_frames} frames)",
            replay=(
                "python -c \"from repro.experiments.validation import "
                f"validate; print(validate({seed}, {n_frames}))\""
            ),
        )
        for seed in seeds
    ]
    return FleetSpec(
        kind="validation",
        points=points,
        meta={"seeds": seeds, "n_frames": n_frames},
    )


def failover_fleet_spec(
    seeds: list[int] | range,
    duration_ns: int = 6 * SEC,
    modes: Optional[tuple[str, ...]] = None,
) -> FleetSpec:
    """The control-plane failover campaign over a seed population.

    One point per (mode, seed): every mode faces the identical churn and
    the identical mid-run server crash, so the per-seed triple renders a
    direct survival comparison.
    """
    from repro.experiments.failover import (
        MODES,
        build_churn,
        build_crash_plan,
    )

    seeds = list(seeds)
    if not seeds:
        raise ValueError("failover fleet needs at least one seed")
    mode_list = tuple(modes) if modes else MODES
    churn_hash = build_churn(duration_ns).stable_hash()
    plan_hash = build_crash_plan(duration_ns).stable_hash()
    points: list[FleetPoint] = []
    for seed in seeds:
        for mode in mode_list:
            task_hash = f"{plan_hash}.{churn_hash}.{mode}"
            points.append(
                FleetPoint(
                    kind="failover",
                    key=f"{task_hash}:{seed}",
                    task_hash=task_hash,
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


# ----------------------------------------------------------------------
# point runners (executed inside workers -- must import lazily enough to
# stay cheap, and must return JSON-safe dicts)
# ----------------------------------------------------------------------
def _run_chaos_point(params: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.chaos import build_plan, run_one

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


def _run_ablation_point(params: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.ablations import run_variant

    entry = run_variant(
        params["variant"], params["duration_ns"], params["seed"]
    )
    return {"seed": params["seed"], **asdict(entry)}


def _run_validation_point(params: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.validation import validate

    result = validate(params["seed"], params["n_frames"])
    return {"seed": params["seed"], **result.as_dict()}


def _run_failover_point(params: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.failover import run_failover_one

    run = run_failover_one(
        params["mode"], params["seed"], params["duration_ns"]
    )
    return run.as_dict()


_POINT_RUNNERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "chaos": _run_chaos_point,
    "ablation": _run_ablation_point,
    "validation": _run_validation_point,
    "failover": _run_failover_point,
}


# ----------------------------------------------------------------------
# retry policy (the establish() backoff shape, on the host clock)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with doubling backoff, capped.

    The same policy shape :meth:`CTMSSession.establish` uses against lost
    control frames, lifted to the host clock: attempt ``n`` failing waits
    ``min(backoff_s * 2**(n-1), backoff_cap_s)`` before re-dispatch, and
    ``max_attempts`` bounds the budget before the point is declared failed.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s <= 0:
            raise ValueError("backoff must be positive")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        return min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s)


# ----------------------------------------------------------------------
# the crash-safe journal
# ----------------------------------------------------------------------
class Journal:
    """Append-only JSONL result journal with a torn-tail-tolerant loader.

    Line 1 is a header identifying the campaign; every further line is one
    point outcome (``status`` ``"ok"`` or ``"failed"``).  Appends are
    flushed and fsynced, so a SIGKILL can lose at most the record being
    written -- and the loader simply skips an undecodable final line.
    Re-recorded keys (a resumed run retrying a failed point) follow
    last-writer-wins.
    """

    def __init__(self, path: Path, fh) -> None:
        self.path = path
        self._fh = fh

    # -- creation ------------------------------------------------------
    @classmethod
    def create(cls, path: Path, spec: FleetSpec) -> "Journal":
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w")
        journal = cls(path, fh)
        journal._append(
            {
                "v": JOURNAL_VERSION,
                "campaign": spec.campaign_id(),
                "kind": spec.kind,
                "total_points": len(spec.points),
                "meta": spec.meta,
            }
        )
        return journal

    @classmethod
    def append_to(cls, path: Path) -> "Journal":
        # A mid-write kill can leave a torn final line with no newline;
        # terminate it first so the next append starts a fresh record
        # instead of extending the fragment into a second corrupt line.
        with open(path, "rb") as check:
            check.seek(0, os.SEEK_END)
            torn = check.tell() > 0 and (
                check.seek(-1, os.SEEK_END) or check.read(1) != b"\n"
            )
        fh = open(path, "a")
        if torn:
            fh.write("\n")
            fh.flush()
        return cls(path, fh)

    @staticmethod
    def load(path: Path) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
        """Header plus the last record per key (undecodable lines skipped).

        Telemetry records are invisible here by construction: they carry
        ``"telemetry"``/``"point"`` but never ``"key"``, so the merge reads
        the same result set whether telemetry was on or off.
        """
        header, records, _telemetry = Journal.load_full(path)
        return header, records

    @staticmethod
    def load_full(
        path: Path,
    ) -> tuple[dict[str, Any], dict[str, dict[str, Any]], list[dict[str, Any]]]:
        """Header, last record per key, and telemetry records in order.

        The loader is torn-tail tolerant line by line: a record mid-append
        by a concurrent writer (or truncated by a SIGKILL) is skipped while
        every complete record -- before *and* after it on a later read --
        is returned.
        """
        header: dict[str, Any] = {}
        records: dict[str, dict[str, Any]] = {}
        telemetry: list[dict[str, Any]] = []
        # Binary reads, decoded per line: a tail torn *inside* a multi-byte
        # UTF-8 sequence must skip that line, not blow up the whole load
        # with a UnicodeDecodeError the way a text-mode stream would.
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh):
                if not raw.endswith(b"\n"):
                    # A complete record is exactly one newline-terminated
                    # line; a flushed-but-unfinished tail may parse as
                    # valid JSON (e.g. a number) and must not count.
                    continue
                try:
                    obj = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn tail from a mid-write kill
                if not isinstance(obj, dict):
                    continue
                if obs_telemetry.is_telemetry(obj):
                    telemetry.append(obj)
                elif i == 0 and "campaign" in obj and "key" not in obj:
                    header = obj
                elif "key" in obj:
                    records[obj["key"]] = obj
        return header, records, telemetry

    # -- writes --------------------------------------------------------
    def record_ok(
        self, point: FleetPoint, attempts: int, result: dict[str, Any]
    ) -> None:
        self._append(
            {
                "key": point.key,
                "status": "ok",
                "seed": point.seed,
                "attempts": attempts,
                "result": result,
            }
        )

    def record_failed(
        self, point: FleetPoint, attempts: int, error: str
    ) -> None:
        self._append(
            {
                "key": point.key,
                "status": "failed",
                "seed": point.seed,
                "attempts": attempts,
                "error": error,
                "label": point.label,
                "replay": point.replay,
            }
        )

    def record_telemetry(self, obj: dict[str, Any]) -> None:
        """Append one telemetry record (same flush+fsync as results)."""
        self._append(obj)

    def _append(self, obj: dict[str, Any]) -> None:
        self._fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def journal_path(spec: FleetSpec, state_dir: str | Path) -> Path:
    return Path(state_dir) / f"campaign-{spec.campaign_id()}" / "journal.jsonl"


class _TelemetryWriter:
    """Stamps and journals telemetry records for one campaign.

    The schema and all downstream arithmetic live in
    :mod:`repro.obs.telemetry` (observe-only); this writer is the fleet's
    side of the bargain -- it reads the host clock (sanctioned here by
    CTMS303) and appends to the fsynced journal.  Disabled, it writes
    nothing, and a golden test pins that the merged report cannot tell.
    """

    def __init__(self, journal: Journal, enabled: bool) -> None:
        self._journal = journal
        self.enabled = enabled

    def emit(self, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self._journal.record_telemetry(
            obs_telemetry.record(event, ts=round(time.time(), 3), **fields)
        )

    def point_started(self, point: FleetPoint, attempt: int, worker: int) -> None:
        self.emit(
            obs_telemetry.EVENT_POINT_STARTED,
            point=point.key,
            seed=point.seed,
            attempt=attempt,
            worker=worker,
        )

    def point_finished(
        self,
        point: FleetPoint,
        attempt: int,
        worker: int,
        status: str,
        wall_ms: float,
        result: Optional[dict[str, Any]] = None,
    ) -> None:
        events = (result or {}).get("events")
        self.emit(
            obs_telemetry.EVENT_POINT_FINISHED,
            point=point.key,
            seed=point.seed,
            attempt=attempt,
            worker=worker,
            status=status,
            wall_ms=round(wall_ms, 3),
            events=events if isinstance(events, int) else None,
        )


# ----------------------------------------------------------------------
# interruption
# ----------------------------------------------------------------------
class FleetInterrupted(KeyboardInterrupt):
    """Ctrl-C mid-campaign: the journal survived; here is how to continue.

    Subclasses :class:`KeyboardInterrupt` so callers that only handle the
    stock interrupt still unwind correctly, but carries everything a CLI
    needs to tell the user their completed points are safe.
    """

    def __init__(
        self, completed: int, total: int, journal: Path, resume_hint: str
    ) -> None:
        super().__init__(
            f"campaign interrupted: {completed}/{total} points journalled "
            f"at {journal}"
        )
        self.completed = completed
        self.total = total
        self.journal = journal
        self.resume_hint = resume_hint


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _self_injure(fault: WorkerFaultSpec) -> None:
    """Apply a matched worker fault *inside the worker process*."""
    if fault.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault.kind == "hang":
        time.sleep(fault.hang_s)
    raise WorkerFaultError(f"injected worker fault: {fault.kind}")


def _worker_main(
    worker_id: int,
    kind: str,
    inbox,
    results,
    fault_dict: Optional[dict[str, Any]],
) -> None:
    """Worker loop: pull a point, run it, report; ``None`` means retire."""
    fault = WorkerFaultSpec.from_dict(fault_dict) if fault_dict else None
    runner = _POINT_RUNNERS[kind]
    while True:
        msg = inbox.get()
        if msg is None:
            return
        key, seed, profile, attempt, params = msg
        try:
            if fault is not None and fault.matches(seed, profile, attempt):
                _self_injure(fault)
            result = runner(params)
        except BaseException as exc:  # a point must never kill the loop
            results.put(
                ("error", worker_id, key, f"{type(exc).__name__}: {exc}")
            )
        else:
            results.put(("done", worker_id, key, result))


class _WorkerHandle:
    """Supervisor-side state for one worker process."""

    def __init__(self, ctx, worker_id: int, kind: str, results, fault_dict):
        self.worker_id = worker_id
        self.inbox = ctx.Queue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, kind, self.inbox, results, fault_dict),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        self.spawned_ns = time.monotonic_ns()
        #: (point, attempt, started_ns) while busy, else None.
        self.current: Optional[tuple[FleetPoint, int, int]] = None
        self.proc.start()

    def assign(self, point: FleetPoint, attempt: int) -> None:
        self.current = (point, attempt, time.monotonic_ns())
        self.inbox.put(
            (point.key, point.seed, point.profile, attempt, point.params)
        )

    def lifetime_ns(self) -> int:
        return time.monotonic_ns() - self.spawned_ns


def _mp_context():
    # Imported here, its one user: a serial (jobs=1) campaign never loads
    # multiprocessing and what it pulls in (pickle, socket, ...).
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Everything one campaign produced, merge-ready."""

    spec: FleetSpec
    #: key -> journal "ok" record (``record["result"]`` is the point dict).
    results: dict[str, dict[str, Any]]
    #: key -> journal "failed" record for points that exhausted retries.
    failures: dict[str, dict[str, Any]]
    registry: MetricsRegistry
    journal: Path
    jobs: int

    def ok(self) -> bool:
        return not self.failures and len(self.results) == len(self.spec.points)

    def result_for(self, key: str) -> Optional[dict[str, Any]]:
        record = self.results.get(key)
        return record["result"] if record else None

    def render(self) -> str:
        """Deterministic merged report.

        Assembled strictly from the spec's point order and the journalled
        result dicts -- completion order, job count, and resume history
        are invisible here by construction.
        """
        renderer = _RENDERERS[self.spec.kind]
        text = renderer(self.spec, self.results)
        if self.failures:
            ordered = [
                self.failures[p.key]
                for p in self.spec.points
                if p.key in self.failures
            ]
            text += "\n\n" + failed_points_section(
                [
                    {
                        "label": rec.get("label", rec["key"]),
                        "attempts": rec.get("attempts", "?"),
                        "error": rec.get("error", "unknown error"),
                        "replay": rec.get("replay", "(no replay command)"),
                    }
                    for rec in ordered
                ]
            )
        return text


# ----------------------------------------------------------------------
# renderers (one per kind; all order by spec, never by completion)
# ----------------------------------------------------------------------
def _render_chaos(
    spec: FleetSpec, results: dict[str, dict[str, Any]]
) -> str:
    from repro.experiments.chaos import (
        PROFILES,
        SURVIVAL_MAX_INTERARRIVAL_NS,
        SURVIVAL_MAX_LOSS_FRACTION,
        SURVIVAL_THROUGHPUT_BYTES_PER_SEC,
    )
    from repro.sim.units import MS

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
            survived = sum(
                1
                for r in runs
                if r["established"] and not r["violated"]
            )
            established = sum(1 for r in runs if r["established"])
            delivered = sum(r["delivered"] for r in runs)
            lost = sum(r["lost_packets"] for r in runs)
            mean_kbs = (
                sum(r["throughput_bytes_per_sec"] for r in runs)
                / len(runs)
                / 1000
            )
            totals[profile][0] += survived
            totals[profile][1] += len(runs)
            rows.append(
                [
                    profile,
                    str(len(runs)),
                    str(established),
                    str(survived),
                    str(delivered),
                    str(lost),
                    f"{mean_kbs:.1f}",
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


def _render_ablation(
    spec: FleetSpec, results: dict[str, dict[str, Any]]
) -> str:
    from repro.experiments.ablations import TABLE_HEADERS, AblationEntry

    rows = []
    for point in spec.points:
        record = results.get(point.key)
        if record is None:
            continue
        data = dict(record["result"])
        seed = data.pop("seed")
        entry = AblationEntry(**data)
        rows.append([str(seed)] + entry.as_row())
    return format_table(
        "Fleet ablation matrix (one switch flipped at a time)",
        ["seed"] + TABLE_HEADERS,
        rows,
    )


def _render_validation(
    spec: FleetSpec, results: dict[str, dict[str, Any]]
) -> str:
    rows = []
    agree = total = 0
    for point in spec.points:
        record = results.get(point.key)
        if record is None:
            continue
        r = record["result"]
        total += 1
        agree += 1 if r["agrees"] else 0
        rows.append(
            [
                str(r["seed"]),
                str(r["frames"]),
                str(r["max_delivery_skew_ns"]),
                f"{r['mean_delivery_skew_ns']:.1f}",
                str(r["detailed_token_hops"]),
                "agree" if r["agrees"] else "DIVERGED",
            ]
        )
    table = format_table(
        "Fleet model validation: lazy vs hop-level token ring",
        ["seed", "frames", "max skew(ns)", "mean skew(ns)", "token hops", "verdict"],
        rows,
    )
    return table + f"\n\nagreement: {agree}/{total} seeds"


def _render_failover(
    spec: FleetSpec, results: dict[str, dict[str, Any]]
) -> str:
    from repro.experiments.failover import FailoverRun

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
        admitted = run.admitted()
        totals[run.mode][0] += run.survived_count()
        totals[run.mode][1] += len(admitted)
        stranded = sum(
            1 for s in admitted if not s.survived()
        )
        rows.append(
            [
                str(run.seed),
                run.mode,
                str(len(run.sessions)),
                str(len(admitted)),
                run.survival_line(),
                str(stranded),
                str(sum(s.failovers for s in run.sessions)),
                str(sum(s.lost_packets for s in run.sessions)),
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


_RENDERERS: dict[str, Callable[[FleetSpec, dict], str]] = {
    "chaos": _render_chaos,
    "ablation": _render_ablation,
    "validation": _render_validation,
    "failover": _render_failover,
}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_fleet(
    spec: FleetSpec,
    jobs: int = 1,
    state_dir: str | Path = ".fleet",
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    point_timeout_s: float = 120.0,
    worker_faults: Optional[WorkerFaultSpec] = None,
    registry: Optional[MetricsRegistry] = None,
    resume_hint: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    telemetry: bool = True,
) -> FleetResult:
    """Run (or resume) a campaign; returns the merge-ready result set.

    ``jobs=1`` executes points serially in-process (the reference the
    golden test compares everything against); ``jobs>=2`` runs the
    supervised worker pool.  Both paths share the journal, the retry
    policy, and the metrics registry, and both produce results exclusively
    as journalled dicts -- the merge cannot tell them apart.

    ``telemetry=True`` (the default) interleaves structured telemetry
    records (:mod:`repro.obs.telemetry`) with the point results in the
    same journal: point started/finished/retried/killed with wall-clock
    and sim-event counts, plus campaign start/finish markers carrying a
    metrics snapshot.  Telemetry is observe-only -- the result loader
    skips it, so the merged report is byte-identical either way (pinned
    by a golden test) and ``--resume`` works across the mix.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    registry = registry or MetricsRegistry()
    emit = log or (lambda _msg: None)
    path = journal_path(spec, state_dir)
    hint = resume_hint or (
        f"resume with: run_fleet(spec, jobs={jobs}, "
        f"state_dir={str(state_dir)!r}, resume=True)"
    )

    results: dict[str, dict[str, Any]] = {}
    if resume and path.exists():
        header, records = Journal.load(path)
        if header and header.get("campaign") != spec.campaign_id():
            raise ValueError(
                f"journal {path} belongs to campaign "
                f"{header.get('campaign')}, not {spec.campaign_id()}"
            )
        spec_keys = {p.key for p in spec.points}
        results = {
            key: rec
            for key, rec in records.items()
            if key in spec_keys and rec.get("status") == "ok"
        }
        registry.counter(fleetstats.POINTS_RESUMED).incr(len(results))
        journal = Journal.append_to(path)
        emit(
            f"resuming campaign {spec.campaign_id()}: "
            f"{len(results)}/{len(spec.points)} points already journalled"
        )
    else:
        journal = Journal.create(path, spec)

    pending = [p for p in spec.points if p.key not in results]
    failures: dict[str, dict[str, Any]] = {}
    tw = _TelemetryWriter(journal, enabled=telemetry)
    tw.emit(
        obs_telemetry.EVENT_CAMPAIGN_STARTED,
        campaign=spec.campaign_id(),
        kind=spec.kind,
        total_points=len(spec.points),
        resumed=len(results),
        jobs=jobs,
    )

    def finish() -> FleetResult:
        tw.emit(
            obs_telemetry.EVENT_CAMPAIGN_FINISHED,
            campaign=spec.campaign_id(),
            completed=len(results),
            failed=len(failures),
            metrics=registry.as_dict(),
        )
        journal.close()
        return FleetResult(
            spec=spec,
            results=results,
            failures=failures,
            registry=registry,
            journal=path,
            jobs=jobs,
        )

    def interrupted() -> FleetInterrupted:
        journal.close()
        return FleetInterrupted(
            completed=len(results),
            total=len(spec.points),
            journal=path,
            resume_hint=hint,
        )

    if jobs == 1:
        try:
            _run_serial(
                spec, pending, journal, results, failures, retry,
                worker_faults, registry, emit, tw,
            )
        except KeyboardInterrupt:
            raise interrupted() from None
        return finish()

    try:
        _run_supervised(
            spec, pending, journal, results, failures, retry,
            point_timeout_s, worker_faults, registry, jobs, emit, tw,
        )
    except KeyboardInterrupt:
        raise interrupted() from None
    return finish()


def _record_outcome(
    point: FleetPoint,
    attempt: int,
    error: str,
    retry: RetryPolicy,
    journal: Journal,
    failures: dict[str, dict[str, Any]],
    registry: MetricsRegistry,
    emit: Callable[[str], None],
    tw: _TelemetryWriter,
) -> bool:
    """Handle one failed attempt; True when the point should be retried."""
    if attempt < retry.max_attempts:
        registry.counter(fleetstats.POINTS_RETRIED).incr()
        tw.emit(
            obs_telemetry.EVENT_POINT_RETRIED,
            point=point.key,
            seed=point.seed,
            attempt=attempt,
            error=error,
            backoff_s=retry.backoff_for(attempt),
        )
        emit(
            f"{point.label}: attempt {attempt} failed ({error}); "
            f"retrying in {retry.backoff_for(attempt):.2f}s"
        )
        return True
    registry.counter(fleetstats.POINTS_FAILED).incr()
    journal.record_failed(point, attempt, error)
    failures[point.key] = {
        "key": point.key,
        "status": "failed",
        "seed": point.seed,
        "attempts": attempt,
        "error": error,
        "label": point.label,
        "replay": point.replay,
    }
    emit(f"{point.label}: FAILED after {attempt} attempt(s): {error}")
    return False


def _run_serial(
    spec: FleetSpec,
    pending: list[FleetPoint],
    journal: Journal,
    results: dict[str, dict[str, Any]],
    failures: dict[str, dict[str, Any]],
    retry: RetryPolicy,
    worker_faults: Optional[WorkerFaultSpec],
    registry: MetricsRegistry,
    emit: Callable[[str], None],
    tw: _TelemetryWriter,
) -> None:
    """The in-process reference path (also the no-multiprocessing fallback).

    Only ``fail``-kind worker faults can fire here: crashing or hanging
    the sole process would take the supervisor down with it, which is
    exactly what the parallel path exists to survive.
    """
    runner = _POINT_RUNNERS[spec.kind]
    for point in pending:
        attempt = 0
        while True:
            attempt += 1
            registry.counter(fleetstats.POINTS_DISPATCHED).incr()
            tw.point_started(point, attempt, worker=0)
            started_ns = time.monotonic_ns()
            try:
                if (
                    worker_faults is not None
                    and worker_faults.kind == "fail"
                    and worker_faults.matches(
                        point.seed, point.profile, attempt
                    )
                ):
                    raise WorkerFaultError("injected worker fault: fail")
                result = runner(point.params)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                tw.point_finished(
                    point, attempt, 0, "error",
                    to_ms(time.monotonic_ns() - started_ns),
                )
                if _record_outcome(
                    point, attempt, error, retry, journal, failures,
                    registry, emit, tw,
                ):
                    time.sleep(retry.backoff_for(attempt))
                    continue
                break
            else:
                tw.point_finished(
                    point, attempt, 0, "ok",
                    to_ms(time.monotonic_ns() - started_ns),
                    result,
                )
                journal.record_ok(point, attempt, result)
                results[point.key] = {
                    "key": point.key,
                    "status": "ok",
                    "seed": point.seed,
                    "attempts": attempt,
                    "result": result,
                }
                registry.counter(fleetstats.POINTS_COMPLETED).incr()
                break


def _run_supervised(
    spec: FleetSpec,
    pending: list[FleetPoint],
    journal: Journal,
    results: dict[str, dict[str, Any]],
    failures: dict[str, dict[str, Any]],
    retry: RetryPolicy,
    point_timeout_s: float,
    worker_faults: Optional[WorkerFaultSpec],
    registry: MetricsRegistry,
    jobs: int,
    emit: Callable[[str], None],
    tw: _TelemetryWriter,
) -> None:
    """The supervised worker pool."""
    ctx = _mp_context()
    result_q = ctx.Queue()
    fault_dict = worker_faults.as_dict() if worker_faults else None
    timeout_ns = from_sec(point_timeout_s)

    workers: list[_WorkerHandle] = []
    next_worker_id = 0
    ready: deque[tuple[FleetPoint, int]] = deque(
        (point, 1) for point in pending
    )
    delayed: list[tuple[int, FleetPoint, int]] = []  # (ready_at_ns, point, n)

    def spawn_worker() -> _WorkerHandle:
        nonlocal next_worker_id
        next_worker_id += 1
        handle = _WorkerHandle(
            ctx, next_worker_id, spec.kind, result_q, fault_dict
        )
        registry.counter(fleetstats.WORKERS_SPAWNED).incr()
        workers.append(handle)
        return handle

    def retire_worker(handle: _WorkerHandle) -> None:
        registry.histogram(
            fleetstats.WORKER_LIFETIME_NS, unit="ns"
        ).record(handle.lifetime_ns())
        workers.remove(handle)

    def attempt_failed(point: FleetPoint, attempt: int, error: str) -> None:
        if _record_outcome(
            point, attempt, error, retry, journal, failures, registry, emit,
            tw,
        ):
            ready_at = time.monotonic_ns() + int(
                retry.backoff_for(attempt) * 1_000_000_000
            )
            delayed.append((ready_at, point, attempt + 1))

    def outstanding() -> int:
        busy = sum(1 for w in workers if w.current is not None)
        return len(ready) + len(delayed) + busy

    try:
        while outstanding() > 0:
            now = time.monotonic_ns()
            # Promote due retries (sorted so equal-time retries keep a
            # stable order; merge order never depends on this).
            if delayed:
                delayed.sort(key=lambda item: item[0])
                while delayed and delayed[0][0] <= now:
                    _at, point, attempt = delayed.pop(0)
                    ready.append((point, attempt))
            # Keep the pool at strength while there is work to hand out.
            live = [w for w in workers if w.proc.is_alive()]
            want = min(jobs, outstanding())
            while len(live) < want:
                live.append(spawn_worker())
            # Hand ready points to idle workers.
            for worker in live:
                if not ready:
                    break
                if worker.current is None:
                    point, attempt = ready.popleft()
                    worker.assign(point, attempt)
                    registry.counter(fleetstats.POINTS_DISPATCHED).incr()
                    tw.point_started(point, attempt, worker=worker.worker_id)
            # Drain results.
            try:
                kind_msg = result_q.get(timeout=0.05)
            except Exception:
                kind_msg = None
            while kind_msg is not None:
                tag, worker_id, key, payload = kind_msg
                worker = next(
                    (w for w in workers if w.worker_id == worker_id), None
                )
                if worker is not None and worker.current is not None:
                    point, attempt, started = worker.current
                    if point.key == key:
                        worker.current = None
                        wall_ms = to_ms(time.monotonic_ns() - started)
                        tw.point_finished(
                            point,
                            attempt,
                            worker.worker_id,
                            "ok" if tag == "done" else "error",
                            wall_ms,
                            payload if tag == "done" else None,
                        )
                        if tag == "done":
                            journal.record_ok(point, attempt, payload)
                            results[point.key] = {
                                "key": point.key,
                                "status": "ok",
                                "seed": point.seed,
                                "attempts": attempt,
                                "result": payload,
                            }
                            registry.counter(
                                fleetstats.POINTS_COMPLETED
                            ).incr()
                        else:
                            attempt_failed(point, attempt, payload)
                try:
                    kind_msg = result_q.get_nowait()
                except Exception:
                    kind_msg = None
            # Crashed and hung workers.
            for worker in list(workers):
                if not worker.proc.is_alive():
                    if worker.current is not None:
                        point, attempt, started = worker.current
                        worker.current = None
                        registry.counter(fleetstats.WORKERS_CRASHED).incr()
                        tw.point_finished(
                            point,
                            attempt,
                            worker.worker_id,
                            "error",
                            to_ms(time.monotonic_ns() - started),
                        )
                        attempt_failed(
                            point,
                            attempt,
                            f"worker {worker.worker_id} died "
                            f"(exitcode {worker.proc.exitcode})",
                        )
                    retire_worker(worker)
                    continue
                if worker.current is not None:
                    point, attempt, started = worker.current
                    if time.monotonic_ns() - started > timeout_ns:
                        worker.proc.kill()
                        worker.proc.join(timeout=5.0)
                        worker.current = None
                        registry.counter(fleetstats.WORKERS_KILLED).incr()
                        registry.counter(fleetstats.POINTS_TIMED_OUT).incr()
                        tw.emit(
                            obs_telemetry.EVENT_POINT_KILLED,
                            point=point.key,
                            seed=point.seed,
                            attempt=attempt,
                            worker=worker.worker_id,
                            timeout_s=point_timeout_s,
                        )
                        attempt_failed(
                            point,
                            attempt,
                            f"hung: no result within {point_timeout_s:.1f}s",
                        )
                        retire_worker(worker)
    finally:
        for worker in list(workers):
            if worker.proc.is_alive():
                try:
                    worker.inbox.put_nowait(None)
                except Exception:
                    pass
        for worker in list(workers):
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            retire_worker(worker)


# ----------------------------------------------------------------------
# status and live watch
# ----------------------------------------------------------------------
def _campaign_journals(root: Path) -> list[Path]:
    """Every campaign journal under a fleet state dir, name-sorted."""
    if not root.is_dir():
        return []
    return [
        campaign_dir / "journal.jsonl"
        for campaign_dir in sorted(root.iterdir())
        if (campaign_dir / "journal.jsonl").is_file()
    ]


def fleet_status(state_dir: str | Path = ".fleet") -> str:
    """Human-readable progress of every journalled campaign under a dir.

    Everything is computed from journal record *timestamps* -- elapsed
    wall time, completed/failed/pending counts, and points/sec -- so the
    report is identical no matter when it is asked for (no live clock
    read, no simulated clock anywhere near this path).
    """
    root = Path(state_dir)
    lines = []
    for path in _campaign_journals(root):
        header, records, telemetry = Journal.load_full(path)
        total = header.get("total_points", "?")
        ok = sum(1 for r in records.values() if r.get("status") == "ok")
        failed = sum(
            1 for r in records.values() if r.get("status") == "failed"
        )
        remaining = (total - ok) if isinstance(total, int) else "?"
        state = "complete" if remaining == 0 else f"{remaining} remaining"
        lines.append(
            f"{path.parent.name} ({header.get('kind', '?')}): "
            f"{ok}/{total} ok, {failed} failed, {state}"
        )
        prog = obs_telemetry.progress(header, records, telemetry)
        pending = (
            max(0, total - ok - failed) if isinstance(total, int) else "?"
        )
        if prog.elapsed_s > 0:
            lines.append(
                f"  elapsed {prog.elapsed_s:.1f}s, completed {ok}, "
                f"failed {failed}, pending {pending}, "
                f"{prog.points_per_sec:.2f} points/s"
            )
        elif prog.has_telemetry:
            lines.append(
                f"  completed {ok}, failed {failed}, pending {pending} "
                "(telemetry window too narrow for a rate)"
            )
        else:
            lines.append(
                f"  completed {ok}, failed {failed}, pending {pending} "
                "(no telemetry timestamps journalled)"
            )
        lines.append(f"  journal: {path}")
    if not lines:
        return f"no fleet state under {root} (nothing journalled yet)"
    return "\n".join(lines)


def fleet_watch(
    state_dir: str | Path = ".fleet",
    campaign: Optional[str] = None,
    interval_s: float = 1.0,
    max_updates: Optional[int] = None,
    emit: Optional[Callable[[str], None]] = None,
    follow: bool = True,
) -> Optional["obs_telemetry.CampaignProgress"]:
    """Tail a campaign journal and render a live progress line.

    Observe-only by construction: the watcher opens the journal read-only
    from a separate process (or the same one) and never writes a byte --
    the supervised run it observes is unaffected, and the torn-tail
    loader returns every *complete* record even while the supervisor is
    mid-append.  Returns the last computed progress (None when there is
    no journal to watch).

    ``campaign`` selects a journal by directory-name substring; default
    is the most recently modified journal under ``state_dir``.  The loop
    ends when the campaign finishes, ``max_updates`` renders have been
    emitted, or ``follow=False`` (one shot).  Lives in ``fleet.py``
    because tailing needs the host clock and a sleep (CTMS303).
    """
    emit = emit or print
    root = Path(state_dir)
    prog: Optional[obs_telemetry.CampaignProgress] = None
    updates = 0
    while True:
        journals = _campaign_journals(root)
        if campaign is not None:
            journals = [p for p in journals if campaign in p.parent.name]
        if not journals:
            emit(f"no campaign journal under {root}")
            return None
        # Watch the journal most recently appended to (the live one).
        path = max(journals, key=lambda p: p.stat().st_mtime)
        header, records, telemetry = Journal.load_full(path)
        prog = obs_telemetry.progress(
            header, records, telemetry, now_ts=time.time()
        )
        emit(prog.render_line())
        updates += 1
        if prog.finished or not follow:
            return prog
        if max_updates is not None and updates >= max_updates:
            return prog
        time.sleep(interval_s)
