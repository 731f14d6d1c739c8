"""Perf-trajectory harness: workloads, the regression check, the CLI gate.

Machine-independence discipline: the injected-regression tests compare
against *synthetic* baselines (absurdly fast or absurdly slow), so they
pass on any host; only the final smoke compares a quick run against the
committed ``BENCH_kernel.json``, and does so at a tolerance far below any
plausible scheduler jitter.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.bench import WORKLOADS, check_bench, load_bench, run_bench, write_bench

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_BASELINE = REPO_ROOT / "BENCH_kernel.json"


@pytest.fixture(scope="module")
def quick_payload():
    return run_bench(quick=True)


def test_payload_shape(quick_payload):
    assert set(quick_payload["workloads"]) == set(WORKLOADS)
    for name, workload in quick_payload["workloads"].items():
        assert workload["events"] > 0, name
        assert workload["events_per_sec"] > 0, name
        assert workload["packets"] > 0, name
        assert workload["wall_s"] > 0, name
    hotspots = quick_payload["kernel_hotspots"]
    assert hotspots and all(h["pct"] >= 0 for h in hotspots)
    assert quick_payload["config"]["quick"] is True


def test_write_and_load_round_trip(quick_payload, tmp_path):
    out = tmp_path / "BENCH_test.json"
    write_bench(quick_payload, out)
    assert load_bench(out) == quick_payload
    (tmp_path / "junk.json").write_text('{"not": "a bench artifact"}')
    with pytest.raises(ValueError, match="no 'workloads'"):
        load_bench(tmp_path / "junk.json")


def test_check_passes_against_itself(quick_payload):
    assert check_bench(quick_payload, quick_payload) == []


def test_check_flags_injected_regression(quick_payload):
    # A baseline claiming 1000x our throughput: every workload regresses.
    impossible = json.loads(json.dumps(quick_payload))
    for workload in impossible["workloads"].values():
        workload["events_per_sec"] *= 1000
    messages = check_bench(quick_payload, impossible)
    assert len(messages) == len(WORKLOADS)
    assert all("events/sec is below" in m for m in messages)
    # ...while a baseline 1000x slower passes clean.
    glacial = json.loads(json.dumps(quick_payload))
    for workload in glacial["workloads"].values():
        workload["events_per_sec"] = max(1, workload["events_per_sec"] // 1000)
    assert check_bench(quick_payload, glacial) == []


def test_check_flags_changed_event_counts_on_full_runs(quick_payload):
    # Same seed must schedule the same calendar: a non-quick run whose sim
    # event count drifted from the baseline means the workload changed.
    full = json.loads(json.dumps(quick_payload))
    full["config"]["quick"] = False
    drifted = json.loads(json.dumps(full))
    drifted["workloads"]["kernel"]["events"] += 7
    messages = check_bench(drifted, full)
    assert len(messages) == 1 and "workload itself changed" in messages[0]
    # Quick runs skip the exact-count comparison (different duration).
    assert check_bench(quick_payload, quick_payload) == []


def test_check_ignores_workloads_missing_from_either_side(quick_payload):
    trimmed = json.loads(json.dumps(quick_payload))
    del trimmed["workloads"]["fleet_campaign"]
    assert check_bench(quick_payload, trimmed) == []
    assert check_bench(trimmed, quick_payload) == []


def test_check_rejects_bad_tolerance(quick_payload):
    with pytest.raises(ValueError, match="tolerance"):
        check_bench(quick_payload, quick_payload, tolerance=0.0)


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------
def test_cli_check_exits_nonzero_on_injected_regression(tmp_path, capsys):
    impossible = run_bench(quick=True)
    for workload in impossible["workloads"].values():
        workload["events_per_sec"] *= 1000
    baseline = tmp_path / "BENCH_fake.json"
    write_bench(impossible, baseline)
    code = cli.main(
        ["bench", "--check", "--quick", "--baseline", str(baseline)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION" in captured.err
    assert "regressed" in captured.out


def test_cli_check_errors_cleanly_without_baseline(tmp_path, capsys):
    code = cli.main(
        ["bench", "--check", "--quick", "--baseline",
         str(tmp_path / "missing.json")]
    )
    assert code == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_cli_bench_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_out.json"
    assert cli.main(["bench", "--quick", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert set(load_bench(out)["workloads"]) == set(WORKLOADS)


def test_quick_check_against_committed_baseline(capsys):
    """The smoke `make test` runs: the committed artifact is honest.

    Tolerance 0.05 asks only that this host is within 20x of the machine
    that wrote BENCH_kernel.json -- loose enough for any CI box, tight
    enough to catch an accidental quadratic in the kernel hot path.
    """
    assert COMMITTED_BASELINE.is_file(), "BENCH_kernel.json must be committed"
    code = cli.main(
        ["bench", "--check", "--quick", "--tolerance", "0.05",
         "--baseline", str(COMMITTED_BASELINE)]
    )
    assert code == 0, capsys.readouterr().err


def test_full_length_event_counts_match_committed_baseline():
    """Same seed, same calendar: full-length counts equal the artifact's.

    ``check_bench`` compares exact event counts only between two full
    runs, and the tier-1 smoke above is a quick run -- so this runs each
    workload once at full length (about 0.2 s in total) and pins its
    deterministic ``events``/``packets`` to BENCH_kernel.json.  Throughput
    plays no part.
    """
    committed = load_bench(COMMITTED_BASELINE)["workloads"]
    assert set(committed) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        sample = workload(False)
        assert (sample["events"], sample["packets"]) == (
            committed[name]["events"], committed[name]["packets"]
        ), name
