"""Cross-journal rollups: aggregation arithmetic and the determinism golden.

Two layers: pure unit tests of the chaos kind's ``rollup`` hook and of
:class:`RollupReport` over synthetic :class:`CampaignData` (no sim, no
journal), and end-to-end rollups over real campaign journals -- the
jobs=1-vs-jobs=4 byte-identity golden lives behind the ``fleet`` marker
because it spawns real workers.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import chaos
from repro.experiments.ablations import ablation_fleet_spec
from repro.experiments.chaos import chaos_fleet_spec
from repro.experiments.failover import failover_fleet_spec
from repro.experiments.fleet import KIND_MODULES, kind_module, run_fleet
from repro.experiments.rollup import (
    CampaignData,
    RollupReport,
    load_campaigns,
    rollup,
)
from repro.sim.engine import Simulator
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
    results = [
        # campaign "cafe"
        chaos_result("stock", 1.0, delivered=80, lost=20,
                     violated=["loss_fraction"]),
        chaos_result("ctmsp", 1.0, delivered=100, throughput=60_000.0),
        chaos_result("ctmsp", 0.5, delivered=100, throughput=40_000.0),
        # campaign "beef"
        chaos_result("ctmsp", 1.0, delivered=90, throughput=40_000.0),
    ]
    surface = chaos.rollup(results)["survival_surface"]
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
    summary = chaos.rollup([
        chaos_result("stock", violated=["loss_fraction", "playout_underrun"]),
        chaos_result("stock", delivered=50, lost=50, throughput=10_000.0,
                     violated=["loss_fraction"]),
        chaos_result("ctmsp", throughput=70_000.0),
    ])
    assert summary["violations"] == {
        "loss_fraction": 2,
        "playout_underrun": 1,
    }
    rows = summary["quality"]
    assert [r["profile"] for r in rows] == ["stock", "ctmsp"]
    stock = rows[0]
    assert stock["runs"] == 2
    assert stock["underruns"] == 1
    assert stock["loss_fraction"] == pytest.approx(50 / 200)
    assert stock["min_throughput_bytes_per_sec"] == pytest.approx(10_000.0)


def test_rollup_report_render_and_json_are_deterministic():
    campaigns = [chaos_campaign([chaos_result()])]
    report = RollupReport(campaigns=campaigns)
    assert report.render() == RollupReport(campaigns=campaigns).render()
    # The chaos section is exactly the kind's own hooks.
    assert report.render().endswith(
        "\n\n" + chaos.render_rollup(chaos.rollup([chaos_result()]))
    )
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
    run_fleet(failover_fleet_spec([1], duration_ns=1 * SEC), jobs=1,
              state_dir=tmp_path)
    report = rollup(tmp_path)
    assert len(report.campaigns) == 2
    text = report.render()
    assert "Campaign rollup: 2 journal(s)" in text
    assert "Survival surface" in text
    assert "Delivered quality by profile" in text
    assert "Failover rollup (totals across seeds)" in text
    # The loader ordering is stable: chaos sorts before failover.
    assert [c.kind for c in report.campaigns] == ["chaos", "failover"]


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
    run_fleet(
        chaos_fleet_spec([3], duration_ns=1 * SEC, intensities=(1.0,)),
        jobs=1, state_dir=tmp_path / "a",
    )
    campaigns = load_campaigns([tmp_path / "a", tmp_path / "missing"])
    assert len(campaigns) == 1
    assert campaigns[0].kind == "chaos"
    assert campaigns[0].counts() == (2, 2, 0)


# ----------------------------------------------------------------------
# every section's bytes, pinned
# ----------------------------------------------------------------------
#: state dir -> (specs run into it, sha256 of ``render()``, sha256 of
#: ``to_json()``).  Recorded while every per-kind aggregator still lived
#: in rollup.py, so moving the arithmetic into the kind modules cannot
#: change a byte unnoticed.  ``failover`` was re-pinned once, when its
#: section landed: its overview lines are the old pin's bytes.  ``mixed``
#: was re-pinned once, when the validation kind was deleted: it lost the
#: validation overview row and section, and its other lines are the old
#: pin's bytes.
ROLLUP_PINS = {
    "chaos": (
        lambda: [chaos_fleet_spec([1, 2, 3], duration_ns=1 * SEC,
                                  intensities=(0.5, 2.0))],
        "f378bf2d802a8435dc456052c5226f2b916126dc40a563247950461f6545249e",
        "27bc0329e2ea3a063f847cd37ad8c6895bb03511f317395b49dbc1ee7e958681",
    ),
    "ablation": (
        lambda: [ablation_fleet_spec(1 * SEC)],
        "05bccbe15bc549e6dceb00ce105feef97c19a7686337ef852a5a0e50aa538a8f",
        "9d0a58948e2eb2420fc473d6769f7223829b89db9292672a3e2ad06123afc12e",
    ),
    "mixed": (
        lambda: [
            ablation_fleet_spec(1 * SEC),
            chaos_fleet_spec([1], duration_ns=1 * SEC, intensities=(1.0,)),
        ],
        "7f17b998c9d972cce1d57edd9567546a9755f62faec56578e401db812f2d67b7",
        "1542083845ba11b55e3ee7669f5a41d64bcfceea49f196ec1844a6e49e2b93bb",
    ),
    "failover": (
        lambda: [failover_fleet_spec([1], duration_ns=2 * SEC)],
        "e199293993bf3de43c44f51c97410dc6f25af45a8583ef4dc25698a72c9444c5",
        "84e86cf71a46e2d10f526febc79784d1530617011dcb20c08c39cb32f275890f",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_dirs(tmp_path_factory):
    """One fleet state dir per ``ROLLUP_PINS`` entry, run once."""
    root = tmp_path_factory.mktemp("rollup-pins")
    for name, (build, _text, _json) in ROLLUP_PINS.items():
        for spec in build():
            assert run_fleet(spec, jobs=1, state_dir=root / name).ok()
    return root


@pytest.mark.parametrize("name", list(ROLLUP_PINS))
def test_rollup_output_is_pinned(name, pinned_dirs):
    _build, text_sha256, json_sha256 = ROLLUP_PINS[name]
    report = rollup(pinned_dirs / name)
    assert sha256(report.render()) == text_sha256
    assert sha256(report.to_json()) == json_sha256


def test_rollup_only_reads_journals(pinned_dirs, tmp_path, monkeypatch):
    """Rolling up runs no point and no simulator, writes no journal byte,
    and a journal of a kind that is no longer registered keeps its
    overview row and gets no section."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a rollup must not run a simulation")

    for kind in KIND_MODULES:
        monkeypatch.setattr(kind_module(kind), "run_point", refuse)
    monkeypatch.setattr(Simulator, "run", refuse)
    journals = sorted(pinned_dirs.rglob("journal.jsonl"))
    before = [path.read_bytes() for path in journals]
    for name, (_build, text_sha256, json_sha256) in ROLLUP_PINS.items():
        report = rollup(pinned_dirs / name)
        assert sha256(report.render()) == text_sha256
        assert sha256(report.to_json()) == json_sha256
    assert [path.read_bytes() for path in journals] == before

    retired = tmp_path / "campaign-0ld" / "journal.jsonl"
    retired.parent.mkdir()
    retired.write_text(
        json.dumps({"campaign": "0ld", "kind": "retired", "total_points": 1})
        + "\n"
        + json.dumps({"key": "k:1", "status": "ok", "result": {"x": 1}})
        + "\n"
    )
    report = rollup(tmp_path)
    assert report.as_dict() == {
        "campaigns": [
            {"campaign": "0ld", "kind": "retired", "total": 1, "ok": 1,
             "failed": 0},
        ]
    }
    assert report.render().startswith("Campaign rollup: 1 journal(s), 1/1")
    assert "\n\n" not in report.render()
