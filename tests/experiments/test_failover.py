"""Tests for the failover chaos campaign: golden lock, determinism,
acceptance claims, and the fleet wiring.

The golden pins the whole causal chain -- churn admission, the mid-run
crash of ``server-a``, stall detection, re-placement on the hot spare,
and the resume splice at the sequence high-water mark -- to exact bytes.
Any drift means a seed no longer replays the campaign.
"""

import pytest

from repro.experiments.failover import (
    CONTROL_SLOTS_PER_SERVER,
    FAILOVER_GAP_BUDGET_NS,
    MODES,
    SERVERS,
    build_churn,
    build_crash_plan,
    failover_fleet_spec,
    run_failover_campaign,
    run_failover_one,
)
from repro.experiments.fleet import Journal, journal_path, run_fleet
from repro.sim.units import MS, SEC

GOLDEN_REPORT = """\
Failover chaos: identical churn + server crash vs control modes
seed 1, 3.000 s per run, crash at 1.500 s, glitch budget 600 ms

mode none  (plan 4405946d80cb)
  client-1   admit   delivered    52  lost   39  failovers 0  VIOLATED: inter_arrival, loss_fraction
  client-2   admit   delivered    50  lost   47  failovers 0  VIOLATED: loss_fraction, inter_arrival
  client-3   admit   delivered    19  lost   71  failovers 0  VIOLATED: inter_arrival
  client-4   admit   delivered     9  lost   89  failovers 0  VIOLATED: inter_arrival

mode admission  (plan 4405946d80cb)
  client-1   admit   delivered   124  lost    0  failovers 0  VIOLATED: inter_arrival
  client-2   admit   delivered   248  lost    0  failovers 0  survived
  client-3   queue   delivered     0  lost    0  failovers 0  queued
  client-4   queue   delivered     0  lost    0  failovers 0  queued
  control: admitted 2 queued 2 rejected 0 failovers 0 stranded 0

mode failover  (plan 4405946d80cb)
  client-1   admit   delivered   236  lost    0  failovers 1  survived
  client-2   admit   delivered   240  lost    0  failovers 0  survived
  client-3   queue   delivered     0  lost    0  failovers 0  queued
  client-4   queue   delivered     0  lost    0  failovers 0  queued
  control: admitted 2 queued 2 rejected 0 failovers 1 stranded 0

admitted sessions surviving the crash: none 0/4, admission 1/2, failover 2/2"""


# ----------------------------------------------------------------------
# scenario shape
# ----------------------------------------------------------------------
def test_scenario_has_a_hot_spare():
    # Three replicas, one stream each: a single station cannot source two
    # 167 KB/s streams inside the 12 ms period, so failover capacity must
    # come from a spare station, not a spare slot.
    assert len(SERVERS) == 3
    assert CONTROL_SLOTS_PER_SERVER == 1


def test_churn_and_plan_are_content_addressed():
    assert (
        build_churn(3 * SEC).stable_hash()
        == build_churn(3 * SEC).stable_hash()
    )
    assert (
        build_crash_plan(3 * SEC).stable_hash()
        == build_crash_plan(3 * SEC).stable_hash()
    )
    assert len(build_crash_plan(3 * SEC)) == 1  # one crash, nothing else


# ----------------------------------------------------------------------
# the golden lock and the acceptance claims
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_campaign_report_matches_golden():
    report = run_failover_campaign(seed=1, duration_ns=3 * SEC)
    assert report.render() == GOLDEN_REPORT


@pytest.mark.chaos
def test_campaign_is_deterministic():
    a = run_failover_campaign(seed=1, duration_ns=3 * SEC)
    b = run_failover_campaign(seed=1, duration_ns=3 * SEC)
    assert a.render() == b.render()


@pytest.mark.chaos
def test_failover_mode_saves_every_admitted_session():
    """The acceptance claim: >= 90% of admitted sessions survive the
    mid-campaign crash with failover on; with no control plane, none do."""
    report = run_failover_campaign(seed=1, duration_ns=3 * SEC)
    none = report.run_for("none")
    failover = report.run_for("failover")
    assert none.survived_count() == 0
    admitted = failover.admitted()
    assert admitted
    assert failover.survived_count() / len(admitted) >= 0.9
    # And the save was honest: a bounded glitch, not a silent restart.
    crashed = [s for s in admitted if s.failovers > 0]
    assert crashed
    for s in crashed:
        assert s.failovers <= 1
        assert not s.violated


@pytest.mark.chaos
def test_failover_gap_budget_is_the_documented_600ms():
    assert FAILOVER_GAP_BUDGET_NS == 600 * MS


# ----------------------------------------------------------------------
# serialization and the fleet wiring
# ----------------------------------------------------------------------
def test_run_roundtrips_through_dict():
    from repro.experiments.failover import FailoverRun

    run = run_failover_one("none", seed=1, duration_ns=2 * SEC)
    clone = FailoverRun.from_dict(run.as_dict())
    assert clone.as_dict() == run.as_dict()
    assert clone.survival_line() == run.survival_line()


def test_fleet_spec_enumerates_mode_by_seed():
    spec = failover_fleet_spec([1, 2], duration_ns=3 * SEC)
    assert spec.kind == "failover"
    assert len(spec.points) == 2 * len(MODES)
    labels = {p.label for p in spec.points}
    assert "failover mode failover seed 2" in labels
    for p in spec.points:
        assert "--scenario failover" in p.replay
    # Same inputs -> same campaign identity (what --resume keys on).
    assert (
        spec.campaign_id()
        == failover_fleet_spec([1, 2], duration_ns=3 * SEC).campaign_id()
    )


@pytest.mark.chaos
def test_failover_fleet_runs_and_renders(tmp_path):
    spec = failover_fleet_spec([1], duration_ns=3 * SEC, modes=("failover",))
    result = run_fleet(spec, jobs=1, state_dir=tmp_path)
    assert result.ok()
    rendered = result.render()
    assert "Fleet failover chaos" in rendered
    assert "admitted sessions surviving: failover 2/2" in rendered
    # The journal alone can reconstruct the render (what --resume relies on).
    _header, records = Journal.load(journal_path(spec, tmp_path))
    assert all(
        records[p.key]["status"] == "ok" for p in spec.points
    )
