"""Supervised parallel campaign fleet: shard, retry, journal, merge.

Chaos campaigns, ablation matrices, model-validation sweeps and failover
campaigns are embarrassingly parallel across ``(seed, profile, intensity)``
points, but a naive pool dies wholesale on the first worker exception and
loses hours of completed results to one Ctrl-C.  This module is the robust
runner the robustness stack deserves, and it knows nothing about what a
point computes:

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
  byte-identical reports (a golden test pins this);
* **telemetry, status and watch** over the same journal.

What a point *is* belongs to its experiment module.  :data:`KIND_MODULES`
maps each campaign kind to the module that builds its spec and defines
``run_point(params) -> dict`` (run inside a worker) and
``render_fleet(spec, results) -> str`` (the merged report); the fleet
imports that module only when it runs or renders a campaign of that kind.

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
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

from repro.experiments.reporting import failed_points_section
from repro.faults.workers import WorkerFaultError, WorkerFaultSpec
from repro.obs import fleetstats
from repro.obs import telemetry as obs_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import from_sec, to_ms

#: Journal schema version (bump on incompatible record changes).
JOURNAL_VERSION = 1

#: Campaign kind -> the module defining its ``run_point`` and
#: ``render_fleet``.  Kind strings are hashed into campaign ids and written
#: into journal headers, so one is never renamed.
KIND_MODULES = {
    "chaos": "repro.experiments.chaos",
    "ablation": "repro.experiments.ablations",
    "validation": "repro.experiments.validation",
    "failover": "repro.experiments.failover",
}


def kind_module(kind: str):
    """The experiment module that owns campaign kind ``kind``."""
    return import_module(KIND_MODULES[kind])


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

    task_hash: str
    seed: int
    params: dict[str, Any]
    label: str
    replay: str
    #: Profile name for worker-fault matching ("" when not applicable).
    profile: str = ""

    @property
    def key(self) -> str:
        return f"{self.task_hash}:{self.seed}"


@dataclass
class FleetSpec:
    """A full campaign: ordered points plus render metadata."""

    kind: str
    points: list[FleetPoint]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KIND_MODULES:
            raise ValueError(
                f"unknown fleet kind {self.kind!r}; known: {tuple(KIND_MODULES)}"
            )
        if not self.points:
            raise ValueError(f"{self.kind} campaign has no points")
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


def chaos_fleet_spec(*args: Any, **kwargs: Any) -> FleetSpec:
    """Forwarder for perfbench, which imports the chaos builder from here.

    Every other caller imports
    :func:`repro.experiments.chaos.chaos_fleet_spec` directly.
    """
    from repro.experiments.chaos import chaos_fleet_spec as build

    return build(*args, **kwargs)


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
    ) -> dict[str, Any]:
        """Journal a completed point; returns the record written."""
        return self._append(
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
    ) -> dict[str, Any]:
        """Journal a point that exhausted its retries; returns the record."""
        return self._append(
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

    def _append(self, obj: dict[str, Any]) -> dict[str, Any]:
        self._fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return obj

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
    run_point = kind_module(kind).run_point
    while True:
        msg = inbox.get()
        if msg is None:
            return
        key, seed, profile, attempt, params = msg
        try:
            if fault is not None and fault.matches(seed, profile, attempt):
                _self_injure(fault)
            result = run_point(params)
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
        text = kind_module(self.spec.kind).render_fleet(self.spec, self.results)
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

    run = _Outcomes(journal, results, retry, registry, emit, telemetry)
    run.tw.emit(
        obs_telemetry.EVENT_CAMPAIGN_STARTED,
        campaign=spec.campaign_id(),
        kind=spec.kind,
        total_points=len(spec.points),
        resumed=len(results),
        jobs=jobs,
    )
    pending = [p for p in spec.points if p.key not in results]
    try:
        if jobs == 1:
            _run_serial(run, spec.kind, pending, worker_faults)
        else:
            _run_supervised(
                run, spec.kind, pending, jobs, point_timeout_s, worker_faults
            )
    except KeyboardInterrupt:
        journal.close()
        raise FleetInterrupted(
            completed=len(results),
            total=len(spec.points),
            journal=path,
            resume_hint=hint,
        ) from None
    run.tw.emit(
        obs_telemetry.EVENT_CAMPAIGN_FINISHED,
        campaign=spec.campaign_id(),
        completed=len(results),
        failed=len(run.failures),
        metrics=registry.as_dict(),
    )
    journal.close()
    return FleetResult(
        spec=spec,
        results=results,
        failures=run.failures,
        registry=registry,
        journal=path,
        jobs=jobs,
    )


class _Outcomes:
    """The one outcome path both loops share.

    Every attempt is dispatched, then succeeds or fails, through here:
    telemetry, the journal record (kept as the in-memory result), the
    fleet counters and, for a failed attempt, the retry decision.  The
    loops only decide *where* a point runs and when a retry is due.
    """

    def __init__(
        self,
        journal: Journal,
        results: dict[str, dict[str, Any]],
        retry: RetryPolicy,
        registry: MetricsRegistry,
        log: Callable[[str], None],
        telemetry: bool,
    ) -> None:
        self.journal = journal
        #: key -> journal "ok" record.
        self.results = results
        #: key -> journal "failed" record.
        self.failures: dict[str, dict[str, Any]] = {}
        self.retry = retry
        self.registry = registry
        self.log = log
        self.tw = _TelemetryWriter(journal, enabled=telemetry)

    def dispatched(self, point: FleetPoint, attempt: int, worker: int) -> None:
        self.registry.counter(fleetstats.POINTS_DISPATCHED).incr()
        self.tw.point_started(point, attempt, worker=worker)

    def succeeded(
        self,
        point: FleetPoint,
        attempt: int,
        worker: int,
        started_ns: int,
        result: dict[str, Any],
    ) -> None:
        self.tw.point_finished(
            point, attempt, worker, "ok",
            to_ms(time.monotonic_ns() - started_ns), result,
        )
        self.results[point.key] = self.journal.record_ok(point, attempt, result)
        self.registry.counter(fleetstats.POINTS_COMPLETED).incr()

    def failed(
        self,
        point: FleetPoint,
        attempt: int,
        worker: int,
        started_ns: int,
        error: str,
    ) -> bool:
        """An attempt that ended in an error; True when it will be retried."""
        self.tw.point_finished(
            point, attempt, worker, "error",
            to_ms(time.monotonic_ns() - started_ns),
        )
        return self.retry_or_fail(point, attempt, error)

    def retry_or_fail(self, point: FleetPoint, attempt: int, error: str) -> bool:
        """Handle one failed attempt; True when the point should be retried."""
        if attempt < self.retry.max_attempts:
            backoff_s = self.retry.backoff_for(attempt)
            self.registry.counter(fleetstats.POINTS_RETRIED).incr()
            self.tw.emit(
                obs_telemetry.EVENT_POINT_RETRIED,
                point=point.key,
                seed=point.seed,
                attempt=attempt,
                error=error,
                backoff_s=backoff_s,
            )
            self.log(
                f"{point.label}: attempt {attempt} failed ({error}); "
                f"retrying in {backoff_s:.2f}s"
            )
            return True
        self.registry.counter(fleetstats.POINTS_FAILED).incr()
        self.failures[point.key] = self.journal.record_failed(
            point, attempt, error
        )
        self.log(f"{point.label}: FAILED after {attempt} attempt(s): {error}")
        return False


def _run_serial(
    run: _Outcomes,
    kind: str,
    pending: list[FleetPoint],
    worker_faults: Optional[WorkerFaultSpec],
) -> None:
    """The in-process reference path (also the no-multiprocessing fallback).

    Only ``fail``-kind worker faults can fire here: crashing or hanging
    the sole process would take the supervisor down with it, which is
    exactly what the parallel path exists to survive.
    """
    run_point = kind_module(kind).run_point
    for point in pending:
        attempt = 0
        while True:
            attempt += 1
            run.dispatched(point, attempt, worker=0)
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
                result = run_point(point.params)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if run.failed(point, attempt, 0, started_ns, error):
                    time.sleep(run.retry.backoff_for(attempt))
                    continue
            else:
                run.succeeded(point, attempt, 0, started_ns, result)
            break


def _run_supervised(
    run: _Outcomes,
    kind: str,
    pending: list[FleetPoint],
    jobs: int,
    point_timeout_s: float,
    worker_faults: Optional[WorkerFaultSpec],
) -> None:
    """The supervised worker pool."""
    ctx = _mp_context()
    result_q = ctx.Queue()
    fault_dict = worker_faults.as_dict() if worker_faults else None
    timeout_ns = from_sec(point_timeout_s)
    registry = run.registry

    workers: list[_WorkerHandle] = []
    next_worker_id = 0
    ready: deque[tuple[FleetPoint, int]] = deque(
        (point, 1) for point in pending
    )
    delayed: list[tuple[int, FleetPoint, int]] = []  # (ready_at_ns, point, n)

    def spawn_worker() -> _WorkerHandle:
        nonlocal next_worker_id
        next_worker_id += 1
        handle = _WorkerHandle(ctx, next_worker_id, kind, result_q, fault_dict)
        registry.counter(fleetstats.WORKERS_SPAWNED).incr()
        workers.append(handle)
        return handle

    def retire_worker(handle: _WorkerHandle) -> None:
        registry.histogram(
            fleetstats.WORKER_LIFETIME_NS, unit="ns"
        ).record(handle.lifetime_ns())
        workers.remove(handle)

    def requeue(point: FleetPoint, attempt: int) -> None:
        ready_at = time.monotonic_ns() + from_sec(run.retry.backoff_for(attempt))
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
                    run.dispatched(point, attempt, worker=worker.worker_id)
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
                        if tag == "done":
                            run.succeeded(
                                point, attempt, worker_id, started, payload
                            )
                        elif run.failed(
                            point, attempt, worker_id, started, payload
                        ):
                            requeue(point, attempt)
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
                        error = (
                            f"worker {worker.worker_id} died "
                            f"(exitcode {worker.proc.exitcode})"
                        )
                        if run.failed(
                            point, attempt, worker.worker_id, started, error
                        ):
                            requeue(point, attempt)
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
                        run.tw.emit(
                            obs_telemetry.EVENT_POINT_KILLED,
                            point=point.key,
                            seed=point.seed,
                            attempt=attempt,
                            worker=worker.worker_id,
                            timeout_s=point_timeout_s,
                        )
                        if run.retry_or_fail(
                            point,
                            attempt,
                            f"hung: no result within {point_timeout_s:.1f}s",
                        ):
                            requeue(point, attempt)
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
