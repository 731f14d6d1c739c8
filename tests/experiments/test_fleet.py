"""Fleet unit tests: specs, journal, retry policy, and the serial path.

Everything here stays in-process (``jobs=1``); the tests that spawn,
crash, hang, and SIGKILL real worker processes live in
``test_fleet_procs.py`` behind the ``fleet`` marker.
"""

import hashlib
import json

import pytest

from repro.experiments import chaos
from repro.experiments.ablations import ablation_fleet_spec
from repro.experiments.chaos import (
    ChaosPointError,
    build_plan,
    chaos_fleet_spec,
    run_one,
)
from repro.experiments.failover import failover_fleet_spec
from repro.experiments.fleet import (
    KIND_MODULES,
    FleetInterrupted,
    FleetPoint,
    FleetSpec,
    Journal,
    RetryPolicy,
    fleet_status,
    journal_path,
    kind_module,
    run_fleet,
)
from repro.faults.workers import WorkerFaultSpec
from repro.obs import fleetstats
from repro.obs.fleetstats import fleet_counts, fleet_summary
from repro.sim.units import SEC


def small_chaos_spec(seeds=(3,)):
    """Two cheap points per seed: one stock, one CTMSP."""
    return chaos_fleet_spec(list(seeds), duration_ns=1 * SEC, intensities=(1.0,))


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
def test_chaos_spec_is_deterministic_and_ordered():
    a = chaos_fleet_spec([1, 2], duration_ns=1 * SEC, intensities=(0.5, 1.0))
    b = chaos_fleet_spec([1, 2], duration_ns=1 * SEC, intensities=(0.5, 1.0))
    assert [p.key for p in a.points] == [p.key for p in b.points]
    assert a.campaign_id() == b.campaign_id()
    # 2 intensities x 2 seeds x 2 profiles, intensity-major order.
    assert len(a.points) == 8
    assert [p.params["intensity"] for p in a.points] == [0.5] * 4 + [1.0] * 4
    for point in a.points:
        plan_hash = build_plan(
            point.seed, point.params["intensity"], 1 * SEC
        ).stable_hash()
        assert point.task_hash == f"{plan_hash}.{point.profile}"
        assert point.key == f"{point.task_hash}:{point.seed}"
        assert "--intensities" in point.replay


def test_spec_kinds_have_distinct_campaigns():
    ids = {
        chaos_fleet_spec([1], duration_ns=1 * SEC).campaign_id(),
        ablation_fleet_spec(1 * SEC).campaign_id(),
        failover_fleet_spec([1], duration_ns=1 * SEC).campaign_id(),
    }
    assert len(ids) == 3


def test_duplicate_point_keys_rejected():
    point = FleetPoint(
        task_hash="k", seed=1, params={}, label="x", replay="x",
    )
    assert point.key == "k:1"
    with pytest.raises(ValueError, match="duplicate"):
        FleetSpec(kind="chaos", points=[point, point])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fleet kind"):
        FleetSpec(kind="voyage", points=[])


@pytest.mark.parametrize(
    "build",
    [
        lambda: chaos_fleet_spec([], duration_ns=1 * SEC),
        lambda: ablation_fleet_spec(1 * SEC, seeds=[]),
        lambda: failover_fleet_spec([], duration_ns=1 * SEC),
    ],
    ids=["chaos", "ablation", "failover"],
)
def test_empty_campaign_rejected(build):
    with pytest.raises(ValueError, match="campaign has no points"):
        build()


def test_every_kind_module_defines_the_four_hooks():
    assert set(KIND_MODULES) == {"chaos", "ablation", "failover"}
    for kind in KIND_MODULES:
        module = kind_module(kind)
        assert callable(module.run_point), kind
        assert callable(module.render_fleet), kind
        assert callable(module.rollup), kind
        assert callable(module.render_rollup), kind


# ----------------------------------------------------------------------
# every kind's merged output, pinned
# ----------------------------------------------------------------------
#: kind -> (small spec, sha256 of its rendered report, campaign id, point
#: keys).  Recorded while the builders, point runners and renderers still
#: lived in fleet.py, so moving a kind into its experiment module (or
#: deriving ``FleetPoint.key``) cannot change a byte unnoticed.
KIND_PINS = {
    "ablation": (
        lambda: ablation_fleet_spec(1 * SEC),
        "88556377e766095b2a9332e4be38cd7ad581555fc0f1cd0f68356806f78179be",
        "43e666c00857",
        [
            "cfd3486060c7:1",
            "3686467dee89:1",
            "12c85592978f:1",
            "085c58ce993c:1",
            "6e692aa39849:1",
        ],
    ),
    "failover": (
        lambda: failover_fleet_spec([1], duration_ns=2 * SEC),
        "057e825a720217b3fe42e8bdacdcaa719d191587ffecf3904d4777a76471f044",
        "5229600c54c2",
        [
            "c68a11c70397.c1d8e05c0897.none:1",
            "c68a11c70397.c1d8e05c0897.admission:1",
            "c68a11c70397.c1d8e05c0897.failover:1",
        ],
    ),
    "chaos": (
        lambda: chaos_fleet_spec([1], duration_ns=1 * SEC, intensities=(1.0,)),
        "a1f841f0a7e948bc582c6c185d2f9aa5d7dfddff07f80aa0f76b8672c22f3a7e",
        "be2e393231b6",
        [
            "c1fdfe15c018.stock:1",
            "c1fdfe15c018.ctmsp:1",
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(KIND_PINS))
def test_kind_output_is_pinned(kind, tmp_path):
    build, render_sha256, campaign_id, keys = KIND_PINS[kind]
    spec = build()
    assert spec.kind == kind
    assert spec.campaign_id() == campaign_id
    assert [p.key for p in spec.points] == keys
    result = run_fleet(spec, jobs=1, state_dir=tmp_path)
    assert result.ok()
    assert hashlib.sha256(result.render().encode()).hexdigest() == render_sha256


# ----------------------------------------------------------------------
# retry policy (the establish() backoff shape)
# ----------------------------------------------------------------------
def test_backoff_doubles_to_a_cap():
    policy = RetryPolicy(max_attempts=5, backoff_s=0.05, backoff_cap_s=0.2)
    assert [policy.backoff_for(n) for n in (1, 2, 3, 4)] == [
        0.05,
        0.1,
        0.2,
        0.2,
    ]


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=0.0)


# ----------------------------------------------------------------------
# worker fault specs (inert data; machinery applied only by the fleet)
# ----------------------------------------------------------------------
def test_worker_fault_matching():
    fault = WorkerFaultSpec(
        kind="crash", seeds=(1, 2), profiles=("stock",), max_attempt=2
    )
    assert fault.matches(1, "stock", 1)
    assert fault.matches(2, "stock", 2)
    assert not fault.matches(3, "stock", 1)  # wrong seed
    assert not fault.matches(1, "ctmsp", 1)  # wrong profile
    assert not fault.matches(1, "stock", 3)  # past the attempt budget


def test_worker_fault_wildcards_and_round_trip():
    fault = WorkerFaultSpec(kind="hang", hang_s=1.5)
    assert fault.matches(99, "anything", 1)
    assert WorkerFaultSpec.from_dict(fault.as_dict()) == fault
    with pytest.raises(ValueError):
        WorkerFaultSpec(kind="meltdown")


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
def test_journal_round_trip(tmp_path):
    spec = small_chaos_spec()
    path = journal_path(spec, tmp_path)
    journal = Journal.create(path, spec)
    journal.record_ok(spec.points[0], 1, {"survived": True})
    journal.record_failed(spec.points[1], 3, "boom")
    journal.close()
    header, records = Journal.load(path)
    assert header["campaign"] == spec.campaign_id()
    assert header["total_points"] == 2
    assert records[spec.points[0].key]["status"] == "ok"
    assert records[spec.points[0].key]["result"] == {"survived": True}
    failed = records[spec.points[1].key]
    assert failed["status"] == "failed"
    assert failed["error"] == "boom"
    assert failed["replay"] == spec.points[1].replay


def test_journal_skips_torn_tail_and_keeps_last_writer(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text(
        json.dumps({"campaign": "abc", "total_points": 2}) + "\n"
        + json.dumps({"key": "k:1", "status": "failed"}) + "\n"
        + json.dumps({"key": "k:1", "status": "ok"}) + "\n"
        + '{"key": "k:2", "status":'  # torn mid-write by a SIGKILL
    )
    header, records = Journal.load(path)
    assert header["campaign"] == "abc"
    assert list(records) == ["k:1"]
    assert records["k:1"]["status"] == "ok"  # last writer wins


def test_torn_tail_inside_a_multibyte_utf8_sequence(tmp_path):
    # A SIGKILL can land mid-character, not just mid-record: the tail below
    # ends one byte into the two-byte encoding of U+00E9.  A text-mode
    # reader raises UnicodeDecodeError on the whole file; the loader must
    # instead skip only the torn line and keep every complete record.
    path = tmp_path / "journal.jsonl"
    good = json.dumps({"campaign": "abc", "total_points": 2}) + "\n"
    good += json.dumps({"key": "k:1", "status": "ok", "note": "café"}) + "\n"
    torn = '{"key": "k:2", "note": "café'.encode("utf-8")[:-1]
    path.write_bytes(good.encode("utf-8") + torn)
    header, records = Journal.load(path)
    assert header["campaign"] == "abc"
    assert list(records) == ["k:1"]
    assert records["k:1"]["note"] == "café"


def test_torn_multibyte_line_mid_file_skips_only_itself(tmp_path):
    # Same wound, but with a newline after it and complete records on both
    # sides (a concurrent writer recovered): the later records must load.
    path = tmp_path / "journal.jsonl"
    blob = json.dumps({"campaign": "abc", "total_points": 2}).encode() + b"\n"
    blob += '{"key": "k:1", "note": "café'.encode("utf-8")[:-1] + b"\n"
    blob += json.dumps({"key": "k:2", "status": "ok"}).encode() + b"\n"
    path.write_bytes(blob)
    header, records = Journal.load(path)
    assert header["campaign"] == "abc"
    assert list(records) == ["k:2"]


def test_append_after_torn_tail_starts_a_fresh_line(tmp_path):
    spec = small_chaos_spec()
    path = tmp_path / "journal.jsonl"
    path.write_text(
        json.dumps({"campaign": spec.campaign_id()}) + "\n" + '{"key": "torn'
    )
    journal = Journal.append_to(path)
    journal.record_ok(spec.points[0], 1, {"survived": True})
    journal.close()
    _header, records = Journal.load(path)
    assert records[spec.points[0].key]["status"] == "ok"


# ----------------------------------------------------------------------
# the serial reference path
# ----------------------------------------------------------------------
def test_serial_chaos_fleet(tmp_path):
    spec = small_chaos_spec()
    result = run_fleet(spec, jobs=1, state_dir=tmp_path)
    assert result.ok()
    assert "survived: stock 1/1, ctmsp 1/1" in result.render()
    assert result.journal.is_file()
    counts = fleet_counts(result.registry)
    assert counts[fleetstats.POINTS_DISPATCHED] == 2
    assert counts[fleetstats.POINTS_COMPLETED] == 2
    assert "dispatched 2, completed 2" in fleet_summary(result.registry)


def test_transient_fault_is_retried_to_success(tmp_path):
    fault = WorkerFaultSpec(
        kind="fail", seeds=(3,), profiles=("stock",), max_attempt=1
    )
    result = run_fleet(
        small_chaos_spec(),
        jobs=1,
        state_dir=tmp_path,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
        worker_faults=fault,
    )
    assert result.ok()
    assert "FAILED POINTS" not in result.render()
    counts = fleet_counts(result.registry)
    assert counts[fleetstats.POINTS_RETRIED] == 1
    key = next(p.key for p in result.spec.points if p.profile == "stock")
    assert result.results[key]["attempts"] == 2


def test_exhausted_retries_degrade_gracefully(tmp_path):
    fault = WorkerFaultSpec(
        kind="fail", seeds=(3,), profiles=("stock",), max_attempt=99
    )
    spec = small_chaos_spec()
    result = run_fleet(
        spec,
        jobs=1,
        state_dir=tmp_path,
        retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
        worker_faults=fault,
    )
    assert not result.ok()
    text = result.render()
    # The survivor still renders; the failure is explicit and replayable.
    assert "survived: stock 0/0, ctmsp 1/1" in text
    assert "FAILED POINTS (1)" in text
    failed_point = next(p for p in spec.points if p.profile == "stock")
    assert failed_point.replay in text
    counts = fleet_counts(result.registry)
    assert counts[fleetstats.POINTS_FAILED] == 1
    assert result.failures[failed_point.key]["attempts"] == 2


def test_resume_skips_journalled_points(tmp_path):
    spec = small_chaos_spec()
    first = run_fleet(spec, jobs=1, state_dir=tmp_path)
    resumed = run_fleet(
        small_chaos_spec(), jobs=1, state_dir=tmp_path, resume=True
    )
    counts = fleet_counts(resumed.registry)
    assert counts[fleetstats.POINTS_RESUMED] == 2
    assert counts[fleetstats.POINTS_DISPATCHED] == 0
    assert resumed.render() == first.render()


def test_resume_rejects_foreign_journal(tmp_path):
    spec_a = small_chaos_spec(seeds=(3,))
    spec_b = small_chaos_spec(seeds=(5,))
    run_fleet(spec_a, jobs=1, state_dir=tmp_path)
    path_b = journal_path(spec_b, tmp_path)
    path_b.parent.mkdir(parents=True)
    path_b.write_bytes(journal_path(spec_a, tmp_path).read_bytes())
    with pytest.raises(ValueError, match="belongs to campaign"):
        run_fleet(spec_b, jobs=1, state_dir=tmp_path, resume=True)


def test_interrupt_flushes_journal_and_carries_resume_hint(
    tmp_path, monkeypatch
):
    spec = small_chaos_spec()
    real_runner = chaos.run_point
    calls = []

    def interrupting(params):
        calls.append(params["seed"])
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_runner(params)

    monkeypatch.setattr(chaos, "run_point", interrupting)
    with pytest.raises(FleetInterrupted) as excinfo:
        run_fleet(
            spec, jobs=1, state_dir=tmp_path, resume_hint="repro ... --resume"
        )
    intr = excinfo.value
    assert isinstance(intr, KeyboardInterrupt)
    assert (intr.completed, intr.total) == (1, 2)
    assert intr.resume_hint == "repro ... --resume"
    # The completed point survived the interrupt on disk...
    _header, records = Journal.load(intr.journal)
    assert len(records) == 1
    # ...and a resumed run finishes without redoing it.
    monkeypatch.setattr(chaos, "run_point", real_runner)
    resumed = run_fleet(
        small_chaos_spec(), jobs=1, state_dir=tmp_path, resume=True
    )
    assert resumed.ok()
    assert fleet_counts(resumed.registry)[fleetstats.POINTS_DISPATCHED] == 1


# ----------------------------------------------------------------------
# worker exception context (satellite: errors name (plan_hash, seed))
# ----------------------------------------------------------------------
def test_chaos_point_error_names_replay_coordinates(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("testbed wiring failed")

    monkeypatch.setattr(chaos, "Testbed", explode)
    plan = build_plan(seed=7, intensity=1.0, duration_ns=1 * SEC)
    with pytest.raises(ChaosPointError) as excinfo:
        run_one("ctmsp", plan, 7, 1 * SEC, intensity=1.0)
    err = excinfo.value
    assert err.plan_hash == plan.stable_hash()
    assert (err.seed, err.profile, err.intensity) == (7, "ctmsp", 1.0)
    assert f"plan {plan.stable_hash()}, seed 7" in str(err)
    assert isinstance(err.__cause__, RuntimeError)


def test_chaos_point_error_reaches_the_failure_report(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("testbed wiring failed")

    monkeypatch.setattr(chaos, "Testbed", explode)
    spec = chaos_fleet_spec([7], duration_ns=1 * SEC, intensities=(1.0,))
    result = run_fleet(
        spec,
        jobs=1,
        state_dir=tmp_path,
        retry=RetryPolicy(max_attempts=1, backoff_s=0.001),
    )
    assert not result.ok()
    text = result.render()
    plan_hash = build_plan(7, 1.0, 1 * SEC).stable_hash()
    assert f"plan {plan_hash}, seed 7" in text
    assert "--seed 7" in text  # the replay command rides along


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
def test_fleet_status(tmp_path):
    empty = fleet_status(tmp_path / "nowhere")
    assert "nothing journalled yet" in empty
    result = run_fleet(small_chaos_spec(), jobs=1, state_dir=tmp_path)
    status = fleet_status(tmp_path)
    assert f"campaign-{result.spec.campaign_id()}" in status
    assert "2/2 ok, 0 failed, complete" in status
