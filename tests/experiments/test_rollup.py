"""Cross-journal rollups: aggregation arithmetic and the determinism golden.

Two layers: pure unit tests over synthetic :class:`CampaignData` (no sim,
no journal), and end-to-end rollups over real campaign journals -- the
jobs=1-vs-jobs=4 byte-identity golden lives behind the ``fleet`` marker
because it spawns real workers.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import chaos_fleet_spec
from repro.experiments.fleet import run_fleet
from repro.experiments.rollup import (
    CampaignData,
    RollupReport,
    load_campaigns,
    quality_summary,
    quality_summary_line,
    rollup,
    survival_surface,
    violation_counts,
)
from repro.experiments.validation import validation_fleet_spec
from repro.sim.units import SEC


def chaos_campaign(results, campaign="cafe", path="a/journal.jsonl"):
    """Synthetic chaos CampaignData from a list of chaos result dicts."""
    return CampaignData(
        path=Path(path),
        header={"campaign": campaign, "kind": "chaos",
                "total_points": len(results)},
        records={
            f"p:{i}": {"key": f"p:{i}", "status": "ok", "result": result}
            for i, result in enumerate(results)
        },
    )


def chaos_result(profile="ctmsp", intensity=1.0, delivered=100, lost=0,
                 throughput=50_000.0, violated=(), established=True):
    return {
        "profile": profile,
        "intensity": intensity,
        "delivered": delivered,
        "lost_packets": lost,
        "throughput_bytes_per_sec": throughput,
        "violated": list(violated),
        "established": established,
    }


# ----------------------------------------------------------------------
# aggregation arithmetic (synthetic, no sim)
# ----------------------------------------------------------------------
def test_survival_surface_cells_and_ordering():
    campaigns = [
        chaos_campaign([
            chaos_result("stock", 1.0, delivered=80, lost=20,
                         violated=["loss_fraction"]),
            chaos_result("ctmsp", 1.0, delivered=100, throughput=60_000.0),
            chaos_result("ctmsp", 0.5, delivered=100, throughput=40_000.0),
        ]),
        chaos_campaign([
            chaos_result("ctmsp", 1.0, delivered=90, throughput=40_000.0),
        ], campaign="beef", path="b/journal.jsonl"),
    ]
    surface = survival_surface(campaigns)
    # intensity-ascending, stock before ctmsp within an intensity.
    assert [(c["intensity"], c["profile"]) for c in surface] == [
        (0.5, "ctmsp"), (1.0, "stock"), (1.0, "ctmsp"),
    ]
    hot = surface[2]
    assert hot["runs"] == 2  # aggregated across both campaigns
    assert hot["survived"] == 2
    assert hot["delivered"] == 190
    assert hot["mean_throughput_bytes_per_sec"] == pytest.approx(50_000.0)
    cold = surface[1]
    assert cold["survival_rate"] == 0.0  # violated => did not survive


def test_violation_and_quality_summaries():
    campaigns = [
        chaos_campaign([
            chaos_result("stock", violated=["loss_fraction", "playout_underrun"]),
            chaos_result("stock", delivered=50, lost=50, throughput=10_000.0,
                         violated=["loss_fraction"]),
            chaos_result("ctmsp", throughput=70_000.0),
        ]),
    ]
    assert violation_counts(campaigns) == {
        "loss_fraction": 2,
        "playout_underrun": 1,
    }
    rows = quality_summary(campaigns)
    assert [r["profile"] for r in rows] == ["stock", "ctmsp"]
    stock = rows[0]
    assert stock["runs"] == 2
    assert stock["underruns"] == 1
    assert stock["loss_fraction"] == pytest.approx(50 / 200)
    assert stock["min_throughput_bytes_per_sec"] == pytest.approx(10_000.0)
    line = quality_summary_line(campaigns)
    assert line.startswith("quality: stock ")
    assert "ctmsp" in line
    assert quality_summary_line([]) is None


def test_rollup_report_render_and_json_are_deterministic():
    campaigns = [chaos_campaign([chaos_result()])]
    report = RollupReport(campaigns=campaigns)
    assert report.render() == RollupReport(campaigns=campaigns).render()
    payload = json.loads(report.to_json())
    assert payload["campaigns"][0]["ok"] == 1
    assert payload["survival_surface"][0]["runs"] == 1
    assert RollupReport(campaigns=[]).render().startswith("no campaign journals")


# ----------------------------------------------------------------------
# end to end over real journals
# ----------------------------------------------------------------------
def test_rollup_over_mixed_real_campaigns(tmp_path):
    run_fleet(
        chaos_fleet_spec([1], duration_ns=1 * SEC, intensities=(1.0,)),
        jobs=1, state_dir=tmp_path,
    )
    run_fleet(validation_fleet_spec([3], n_frames=12), jobs=1,
              state_dir=tmp_path)
    report = rollup(tmp_path)
    assert len(report.campaigns) == 2
    text = report.render()
    assert "Campaign rollup: 2 journal(s)" in text
    assert "Survival surface" in text
    assert "Delivered quality by profile" in text
    assert "Model validation rollup: 1/1 seeds agree" in text
    # The loader ordering is stable: chaos sorts before validation.
    assert [c.kind for c in report.campaigns] == ["chaos", "validation"]


@pytest.mark.fleet
def test_rollup_is_byte_identical_across_job_counts(tmp_path):
    spec = chaos_fleet_spec([1, 2], duration_ns=1 * SEC, intensities=(1.0,))
    run_fleet(spec, jobs=1, state_dir=tmp_path / "serial")
    run_fleet(spec, jobs=4, state_dir=tmp_path / "parallel")
    serial = rollup(tmp_path / "serial")
    parallel = rollup(tmp_path / "parallel")
    assert serial.render().encode() == parallel.render().encode()
    assert serial.to_json().encode() == parallel.to_json().encode()


def test_load_campaigns_accepts_many_dirs_and_missing_ones(tmp_path):
    run_fleet(validation_fleet_spec([3], n_frames=12), jobs=1,
              state_dir=tmp_path / "a")
    campaigns = load_campaigns([tmp_path / "a", tmp_path / "missing"])
    assert len(campaigns) == 1
    assert campaigns[0].kind == "validation"
    assert campaigns[0].counts() == (1, 1, 0)
    # Telemetry rides along for callers that want it, results stay keyed.
    assert campaigns[0].telemetry
    assert all("key" not in t for t in campaigns[0].telemetry)
