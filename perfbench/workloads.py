"""The benchmark's four workloads.

Each workload is a closed batch: its points run one after another in this
process, through one public entry point, with no worker processes and no
threads.  A workload has ``inputs`` distinct batches; batch ``index``
takes its inputs from :func:`batch_seed`, so every input comes from the
bench seed, and a run cycles through all of them so that its wall time
covers many inputs rather than one.  ``run_batch`` times the entry-point
call (optionally under a profiler), checks the outputs, and returns a
:class:`Batch` with one digest per point.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# Each workload imports its own entry points, so that a set-up probe pays
# only for the modules its workload loads.


def batch_seed(seed: int, index: int) -> int:
    """The program seed for input ``index`` of a run with bench ``seed``."""
    return seed * 1000 + index


@dataclass
class Batch:
    """One closed batch: its timing, per-point outcomes and counters."""

    wall_s: float
    #: Point labels in run order; a label names the point's inputs.
    labels: list[str]
    #: label -> digest of the point's simulated (or lint) results.
    digests: dict[str, str] = field(default_factory=dict)
    #: label -> why the point failed (it raised, or the fleet failed it).
    errors: dict[str, str] = field(default_factory=dict)
    #: Correctness claims over the whole batch.
    claims: dict[str, bool] = field(default_factory=dict)
    points: list[PointCounters] = field(default_factory=list)
    fleet_overhead_s: float = 0.0
    violations: int = 0
    failovers: int = 0
    shed: int = 0
    modules: int = 0


def _digest(*parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _timed(
    call: Callable[[], Any], profiler, observed: bool = True
) -> tuple[Any, float, float, Any]:
    """Run ``call``, under the counter observer if ``observed``.

    Returns (result, wall_s, raw_wall_s, observer); ``wall_s`` excludes the
    observer's own counter reads.  Without the observer, ``observer`` is
    None.
    """
    if observed:
        from perfbench.observe import TestbedObserver

        context = TestbedObserver()
    else:
        context = contextlib.nullcontext()
    with context as observer:
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = call()
        finally:
            if profiler is not None:
                profiler.disable()
        raw = time.perf_counter() - started
    overhead_s = observer.overhead_s if observer is not None else 0.0
    return result, raw - overhead_s, raw, observer


def _failed(labels: list[str], exc: BaseException) -> Batch:
    error = f"{type(exc).__name__}: {exc}"
    return Batch(wall_s=0.0, labels=labels, errors={label: error for label in labels})


class PaperLoaded:
    """Test Case B with station insertions: the Figure 5-4 configuration."""

    name = "paper_loaded"
    #: Distinct inputs (scenario seeds) a run cycles through.
    inputs = 4
    #: Figure 5-4's rate: about one insertion per two simulated minutes.
    insertions_per_day = 24 * 30.0

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.units import SEC

        self.seed = seed
        self.duration_ns = 20 * SEC
        #: Where the first simulated event starts (for the set-up probe).
        self.first_event = (Simulator, "run")

    def run_batch(self, index: int, profiler=None) -> Batch:
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import test_case_b

        scenario = test_case_b(
            duration_ns=self.duration_ns,
            seed=batch_seed(self.seed, index),
            insertions_per_day=self.insertions_per_day,
        )
        labels = [f"test-case-B seed {scenario.seed}"]
        try:
            result, wall, _raw, observer = _timed(lambda: run_scenario(scenario), profiler)
        except Exception as exc:
            return _failed(labels, exc)
        batch = Batch(wall_s=wall, labels=labels, points=observer.points)
        if len(observer.points) != 1:
            batch.errors[labels[0]] = f"observed {len(observer.points)} runs"
            return batch
        h7 = result.histograms[7]
        batch.digests[labels[0]] = _digest(
            observer.points[0].digest(), h7.count, h7.min(), h7.primary_mode()
        )
        batch.claims = fig_5_4_claims(result, self.duration_ns)
        return batch


def fig_5_4_claims(result: Any, duration_ns: int) -> dict[str, bool]:
    """The shape claims ``benchmarks/test_fig_5_4.py`` asserts.

    The sample-count floor scales with run length (the benchmark asserts
    20,000 over 6 minutes).  At about one insertion per six runs, most
    seeds see none, so the outlier claims are stated per insertion.  The
    benchmark's "an insertion yields an 80-150 ms outlier" is not claimed:
    an insertion near the end of a run delays a packet past the run's end
    (program seed 14001).
    """
    from repro.sim.units import MINUTE, MS, US

    h7 = result.histograms[7]
    insertions = result.testbed.inserter.stats_insertions
    peak = h7.primary_mode()
    outliers = h7.count_between(80 * MS, 150 * MS)
    return {
        "h7 sample count": h7.count > 20_000 * duration_ns / (6 * MINUTE),
        "h7 minimum near 10750 us": abs(h7.min() - 10_750 * US) <= 220 * US,
        "h7 peak near 10900 us": abs(peak - 10_900 * US) <= 400 * US,
        "h7 peak holds 60-95%": 0.6 <= h7.fraction_within(peak, 160 * US) <= 0.95,
        "h7 11-15 ms shoulder >= 5%": h7.fraction_between(11_060 * US, 15_000 * US) >= 0.05,
        "outliers <= 4 per insertion": outliers <= 4 * insertions,
        "loss <= 2 per insertion": result.tracker.lost_packets <= 2 * insertions,
    }


class ChaosFleet:
    """The chaos survival campaign through the real fleet runner."""

    name = "chaos_fleet"
    #: Distinct inputs (campaigns over one chaos seed each) a run cycles
    #: through.  Fault plans differ in host cost by up to 2x, so a run
    #: needs many of them for its mean to settle.
    inputs = 12

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.units import SEC

        self.seed = seed
        self.duration_ns = 4 * SEC
        self.first_event = (Simulator, "run")
        self.tmp_dir = tmp_dir

    def run_batch(self, index: int, profiler=None) -> Batch:
        from repro.experiments.fleet import Journal, chaos_fleet_spec, run_fleet
        from repro.obs import telemetry as obs_telemetry

        base = batch_seed(self.seed, index)
        seeds = [base]
        spec = chaos_fleet_spec(seeds, duration_ns=self.duration_ns)
        labels = [point.label for point in spec.points]
        state_dir = self.tmp_dir / "fleet"
        try:
            fleet, wall, raw, observer = _timed(
                lambda: run_fleet(spec, jobs=1, state_dir=state_dir), profiler
            )
            _header, _records, telemetry = Journal.load_full(fleet.journal)
        except Exception as exc:
            return _failed(labels, exc)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        finished = obs_telemetry.events_of(telemetry, obs_telemetry.EVENT_POINT_FINISHED)
        batch = Batch(
            wall_s=wall,
            labels=labels,
            points=observer.points,
            fleet_overhead_s=raw - sum(r["wall_ms"] for r in finished) / 1000,
        )
        for key, record in fleet.failures.items():
            batch.errors[record.get("label", key)] = record.get("error", "failed")
        if len(observer.points) != len(spec.points):
            for label in labels:
                batch.errors.setdefault(label, f"observed {len(observer.points)} runs")
            return batch
        for point, counters in zip(spec.points, observer.points):
            result = fleet.result_for(point.key)
            if result is None:
                continue
            if result["events"] != counters.events:
                batch.errors[point.label] = "observed run does not match the point"
                continue
            batch.digests[point.label] = _digest(counters.digest(), result)
            batch.violations += len(result["violated"])
        # "ctmsp survives at least as many intensities as stock" fails on
        # some seeds (48016, 48017, 48028 and 48029 at 8 simulated s), so
        # it is not claimed.
        batch.claims = {"every point merged": fleet.ok()}
        return batch


class FailoverChurn:
    """The failover campaign: three control modes against staggered churn
    and one server crash, called directly rather than through the fleet."""

    name = "failover_churn"
    #: Distinct inputs (campaign seeds) a run cycles through.
    inputs = 4

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.units import SEC

        self.seed = seed
        self.duration_ns = 8 * SEC
        self.first_event = (Simulator, "run")

    def run_batch(self, index: int, profiler=None) -> Batch:
        from repro.experiments.failover import MODES, run_failover_campaign

        seed = batch_seed(self.seed, index)
        labels = [f"failover seed {seed} mode {mode}" for mode in MODES]
        try:
            report, wall, _raw, observer = _timed(
                lambda: run_failover_campaign(seed=seed, duration_ns=self.duration_ns),
                profiler,
            )
        except Exception as exc:
            return _failed(labels, exc)
        batch = Batch(wall_s=wall, labels=labels, points=observer.points)
        runs = {run.mode: run for run in report.runs}
        if [run.mode for run in report.runs] != list(MODES) or len(observer.points) != len(MODES):
            for label in labels:
                batch.errors[label] = f"observed {len(observer.points)} runs"
            return batch
        for label, run, counters in zip(labels, report.runs, observer.points):
            if run.events != counters.events:
                batch.errors[label] = "observed run does not match the mode"
                continue
            batch.digests[label] = _digest(counters.digest(), run.as_dict())
            batch.violations += sum(len(s.violated) for s in run.sessions)
            batch.failovers += run.control.get("failovers", 0)
            batch.shed += run.control.get("shed", 0)
        batch.claims = {
            "failover keeps as many admitted sessions alive as admission": (
                runs["failover"].survived_count() >= runs["admission"].survived_count()
            ),
        }
        return batch


class LintTree:
    """A cold whole-program lint of ``src/repro`` with a scratch cache.

    The tree is the input, so the seed changes nothing here.
    """

    name = "lint_tree"
    target = "src/repro"
    inputs = 1

    def __init__(self, seed: int, tmp_dir: Path) -> None:
        from repro.analysis import v2 as lint_v2

        self.first_event = (lint_v2, "summarize_module")
        self.tmp_dir = tmp_dir
        self.labels = [f"lint {self.target}"]

    def run_batch(self, index: int, profiler=None) -> Batch:
        from repro.analysis import v2 as lint_v2

        cache_path = self.tmp_dir / "lint-cache.json"
        cache_path.unlink(missing_ok=True)
        try:
            report, wall, _raw, _observer = _timed(
                lambda: lint_v2.run_lint_v2([self.target], cache_path=cache_path),
                profiler,
                observed=False,
            )
        except Exception as exc:
            return _failed(self.labels, exc)
        finally:
            cache_path.unlink(missing_ok=True)
        findings = [str(f) for f in report.findings]
        batch = Batch(wall_s=wall, labels=self.labels, modules=report.files_scanned)
        batch.digests[self.labels[0]] = _digest(
            report.files_scanned, findings, report.parse_errors
        )
        batch.claims = {
            "zero findings": not findings and not report.parse_errors,
            "modules scanned": report.files_scanned > 0,
        }
        return batch


WORKLOADS: dict[str, type] = {
    w.name: w for w in (PaperLoaded, ChaosFleet, FailoverChurn, LintTree)
}


def build(name: str, seed: int, tmp_dir: Path) -> Any:
    """The named workload; its batches draw their inputs from ``seed``."""
    return WORKLOADS[name](seed, tmp_dir)


__all__ = ["Batch", "WORKLOADS", "batch_seed", "build", "fig_5_4_claims"]
