"""Fleet supervision tests that spawn (and kill) real worker processes.

The golden property under test: ``jobs=1``, ``jobs=4``, a campaign whose
workers crash or hang mid-point, and a SIGKILLed-then-resumed campaign all
render byte-identical reports -- the merge is ordered by point key, never
by completion order, so supervision is invisible in the output.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.chaos import chaos_fleet_spec
from repro.experiments.fleet import Journal, RetryPolicy, journal_path, run_fleet
from repro.faults.workers import WorkerFaultSpec
from repro.obs import fleetstats
from repro.obs.fleetstats import fleet_counts
from repro.sim.units import SEC

pytestmark = pytest.mark.fleet

REPO_ROOT = Path(__file__).resolve().parents[2]

RETRY = RetryPolicy(max_attempts=3, backoff_s=0.01, backoff_cap_s=0.1)


def spec():
    """4 points: 2 seeds x 2 profiles at one intensity, 1 s runs."""
    return chaos_fleet_spec([1, 2], duration_ns=1 * SEC, intensities=(1.0,))


@pytest.fixture(scope="module")
def serial_report(tmp_path_factory):
    """The jobs=1 reference render every supervised run must reproduce."""
    state = tmp_path_factory.mktemp("serial")
    result = run_fleet(spec(), jobs=1, state_dir=state)
    assert result.ok()
    return result.render()


def test_parallel_and_resumed_render_byte_identical(
    serial_report, tmp_path
):
    parallel = run_fleet(spec(), jobs=4, state_dir=tmp_path / "par")
    assert parallel.ok()
    assert parallel.render() == serial_report

    # Rewind the journal to header + first *result* record (as a kill
    # mid-campaign would leave it; telemetry records interleave with
    # results, so filter by the "key" field) and resume: same bytes again.
    path = journal_path(spec(), tmp_path / "par")
    all_lines = path.read_text().splitlines()
    lines = [all_lines[0]] + [
        line for line in all_lines[1:] if "key" in json.loads(line)
    ][:1]
    resumed_state = tmp_path / "resumed"
    repath = journal_path(spec(), resumed_state)
    repath.parent.mkdir(parents=True)
    repath.write_text("\n".join(lines) + "\n")
    resumed = run_fleet(
        spec(), jobs=2, state_dir=resumed_state, resume=True
    )
    assert resumed.ok()
    assert resumed.render() == serial_report
    counts = fleet_counts(resumed.registry)
    assert counts[fleetstats.POINTS_RESUMED] == 1
    assert counts[fleetstats.POINTS_DISPATCHED] == 3


def test_crashed_worker_costs_one_attempt(serial_report, tmp_path):
    fault = WorkerFaultSpec(
        kind="crash", seeds=(1,), profiles=("stock",), max_attempt=1
    )
    result = run_fleet(
        spec(),
        jobs=2,
        state_dir=tmp_path,
        retry=RETRY,
        worker_faults=fault,
    )
    assert result.ok()
    counts = fleet_counts(result.registry)
    assert counts[fleetstats.WORKERS_CRASHED] == 1
    assert counts[fleetstats.POINTS_RETRIED] == 1
    assert result.render() == serial_report


def test_hung_worker_is_killed_and_point_retried(serial_report, tmp_path):
    fault = WorkerFaultSpec(
        kind="hang",
        seeds=(2,),
        profiles=("ctmsp",),
        max_attempt=1,
        hang_s=120.0,
    )
    result = run_fleet(
        spec(),
        jobs=2,
        state_dir=tmp_path,
        retry=RETRY,
        point_timeout_s=2.0,
        worker_faults=fault,
    )
    assert result.ok()
    counts = fleet_counts(result.registry)
    assert counts[fleetstats.POINTS_TIMED_OUT] == 1
    assert counts[fleetstats.WORKERS_KILLED] == 1
    assert counts[fleetstats.POINTS_RETRIED] == 1
    assert result.render() == serial_report


# ----------------------------------------------------------------------
# whole-supervisor kills, through the CLI
# ----------------------------------------------------------------------
def cli_command(state_dir, *extra, seeds=2, seconds=1):
    return [
        sys.executable, "-m", "repro", "chaos",
        "--jobs", "2", "--seeds", str(seeds), "--seconds", str(seconds),
        "--intensities", "1.0", "--state-dir", str(state_dir), *extra,
    ]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def ok_results(path: Path) -> int:
    """Points journalled ok so far.  Telemetry records do not count: a
    ``point_finished`` record carries ``"status":"ok"`` too, but it is
    written before the point's result."""
    if not path.is_file():
        return 0
    _header, records = Journal.load(path)
    return sum(r.get("status") == "ok" for r in records.values())


def wait_for_ok_record(path: Path, deadline_s: float = 60.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if ok_results(path):
            return
        time.sleep(0.05)
    raise AssertionError(f"no journalled point within {deadline_s}s")


def test_resume_after_sigkill_matches_serial(tmp_path):
    state = tmp_path / "state"
    journal = journal_path(spec(), state)
    # Own process group so the SIGKILL takes the workers down too.
    proc = subprocess.Popen(
        cli_command(state),
        cwd=REPO_ROOT,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        wait_for_ok_record(journal)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the campaign beat us to the kill; resume still works
        proc.wait(timeout=30)

    serial = subprocess.run(
        [
            sys.executable, "-m", "repro", "chaos",
            "--jobs", "1", "--seeds", "2", "--seconds", "1",
            "--intensities", "1.0", "--state-dir", str(tmp_path / "ref"),
        ],
        cwd=REPO_ROOT, env=cli_env(), capture_output=True, timeout=300,
    )
    assert serial.returncode == 0
    resumed = subprocess.run(
        cli_command(state, "--resume"),
        cwd=REPO_ROOT, env=cli_env(), capture_output=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == serial.stdout
    # Nothing journalled before the kill was recomputed.
    _header, records = Journal.load(journal)
    assert len(records) == len(spec().points)


def test_sigint_flushes_journal_and_prints_resume_command(tmp_path):
    # 16 points of ~0.1 s on 2 workers: the first result lands with ~0.8 s
    # of points still pending, so the SIGINT cannot arrive after the
    # campaign has finished (that exits -2 from interpreter shutdown) --
    # nor before any result is journalled, since the wait reads results.
    seeds = [1, 2, 3, 4, 5, 6, 7, 8]
    big = chaos_fleet_spec(seeds, duration_ns=4 * SEC, intensities=(1.0,))
    state = tmp_path / "state"
    journal = journal_path(big, state)
    proc = subprocess.Popen(
        cli_command(state, seeds=len(seeds), seconds=4),
        cwd=REPO_ROOT,
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        wait_for_ok_record(journal)
        os.killpg(proc.pid, signal.SIGINT)
        # Read after the signal, so this bounds what was done when it was sent.
        done_at_signal = ok_results(journal)
        _stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
    assert done_at_signal < len(big.points)
    assert proc.returncode == 130, stderr
    text = stderr.decode()
    assert "resume with: python -m repro chaos" in text
    assert "--resume" in text
    # The journal the message promises is really there and loadable.
    header, records = Journal.load(journal)
    assert header["campaign"] == big.campaign_id()
    assert any(r.get("status") == "ok" for r in records.values())


def test_failover_campaign_parallel_matches_serial(tmp_path):
    # The acceptance property for the control-plane scenario: the failover
    # fleet renders byte-identically whether its points ran serially or
    # sharded over the worker pool.
    from repro.experiments.failover import failover_fleet_spec

    fspec = failover_fleet_spec([1, 2], duration_ns=2 * SEC)
    serial = run_fleet(fspec, jobs=1, state_dir=tmp_path / "ser")
    parallel = run_fleet(fspec, jobs=4, state_dir=tmp_path / "par")
    assert serial.ok() and parallel.ok()
    assert parallel.render() == serial.render()
    assert "admitted sessions surviving:" in serial.render()
