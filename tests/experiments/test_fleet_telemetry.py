"""Fleet telemetry: journalling, the observe-only golden, watch, status.

The contract under test: telemetry records ride in the same journal as
point results, are invisible to the merge (byte-identical reports with
telemetry on or off), survive ``--resume``, and are readable by a
concurrent watcher while the supervisor is mid-append.
"""

import json

import pytest

from repro.experiments.fleet import (
    Journal,
    fleet_status,
    fleet_watch,
    journal_path,
    run_fleet,
)
from repro.experiments.validation import validation_fleet_spec
from repro.obs import telemetry


def small_validation_spec(seeds=(3, 4)):
    return validation_fleet_spec(list(seeds), n_frames=12)


def events_in(path):
    _header, _records, recs = Journal.load_full(path)
    return [r["telemetry"] for r in recs]


# ----------------------------------------------------------------------
# the observe-only golden: the merge cannot tell telemetry was there
# ----------------------------------------------------------------------
def test_merged_report_is_byte_identical_with_telemetry_on_or_off(tmp_path):
    spec = small_validation_spec()
    with_telemetry = run_fleet(spec, jobs=1, state_dir=tmp_path / "on")
    without = run_fleet(spec, jobs=1, state_dir=tmp_path / "off", telemetry=False)
    assert with_telemetry.render().encode() == without.render().encode()

    # The journals themselves differ exactly by the telemetry records.
    assert events_in(with_telemetry.journal) == [
        "campaign_started",
        "point_started",
        "point_finished",
        "point_started",
        "point_finished",
        "campaign_finished",
    ]
    assert events_in(without.journal) == []
    # Telemetry records never carry a point key: results stay keyed.
    _header, _records, recs = Journal.load_full(with_telemetry.journal)
    assert all("key" not in r for r in recs)

    # ...and the result loader reads the same result set from both.
    _h1, on_records = Journal.load(with_telemetry.journal)
    _h2, off_records = Journal.load(without.journal)
    assert on_records == off_records


def test_point_finished_records_carry_wall_clock_and_sim_events(tmp_path):
    spec = small_validation_spec()
    result = run_fleet(spec, jobs=1, state_dir=tmp_path)
    _header, _records, recs = Journal.load_full(result.journal)
    finished = telemetry.events_of(recs, telemetry.EVENT_POINT_FINISHED)
    assert len(finished) == 2
    for rec in finished:
        assert rec["status"] == "ok"
        assert rec["wall_ms"] > 0
        assert rec["worker"] == 0  # serial path
        assert rec["point"] in {p.key for p in spec.points}
    started = telemetry.events_of(recs, telemetry.EVENT_CAMPAIGN_STARTED)
    assert started[0]["total_points"] == 2
    done = telemetry.events_of(recs, telemetry.EVENT_CAMPAIGN_FINISHED)
    assert done[0]["completed"] == 2
    assert "fleet.points.completed" in done[0]["metrics"]["counters"]


def test_telemetry_round_trips_through_resume(tmp_path):
    spec = small_validation_spec()
    first = run_fleet(spec, jobs=1, state_dir=tmp_path)
    resumed = run_fleet(spec, jobs=1, state_dir=tmp_path, resume=True)
    # The resumed run re-ran nothing, merged identically...
    assert resumed.render() == first.render()
    # ...and appended its own campaign markers after the first run's.
    _header, _records, recs = Journal.load_full(resumed.journal)
    started = telemetry.events_of(recs, telemetry.EVENT_CAMPAIGN_STARTED)
    assert [r["resumed"] for r in started] == [0, 2]
    # The progress arithmetic still reads clean counts from the mix.
    header, records, _ = Journal.load_full(resumed.journal)
    prog = telemetry.progress(header, records, recs)
    assert prog.done == 2 and prog.finished


# ----------------------------------------------------------------------
# torn tails under a concurrent writer
# ----------------------------------------------------------------------
def test_load_full_skips_concurrent_writers_torn_tail(tmp_path):
    spec = small_validation_spec()
    path = journal_path(spec, tmp_path)
    journal = Journal.create(path, spec)
    journal.record_ok(spec.points[0], 1, {"agrees": True})
    journal.record_telemetry(
        telemetry.record(
            telemetry.EVENT_POINT_STARTED, ts=1.0, point=spec.points[1].key
        )
    )
    # The supervisor is now mid-append: half a record is flushed, no
    # newline yet.  A watcher reading concurrently must see every complete
    # record and skip the tail.
    journal._fh.write('{"key": "' + spec.points[1].key + '", "sta')
    journal._fh.flush()
    header, records, recs = Journal.load_full(path)
    assert header["campaign"] == spec.campaign_id()
    assert list(records) == [spec.points[0].key]
    assert [r["telemetry"] for r in recs] == ["point_started"]
    # The write completes; the next read sees the whole record.
    journal._fh.write('tus": "ok"}\n')
    journal._fh.flush()
    _header, records, _ = Journal.load_full(path)
    assert records[spec.points[1].key]["status"] == "ok"
    journal.close()


def test_load_full_ignores_flushed_tail_that_parses_as_json(tmp_path):
    # A flushed-but-unfinished tail can itself be valid JSON (e.g. a bare
    # number): completeness is the trailing newline, not parseability.
    path = tmp_path / "journal.jsonl"
    path.write_text(
        json.dumps({"campaign": "abc", "total_points": 1}) + "\n" + "123"
    )
    header, records, recs = Journal.load_full(path)
    assert header["campaign"] == "abc"
    assert records == {} and recs == []


# ----------------------------------------------------------------------
# status and watch
# ----------------------------------------------------------------------
def test_fleet_status_reports_elapsed_and_rate_from_timestamps(tmp_path):
    spec = small_validation_spec()
    run_fleet(spec, jobs=1, state_dir=tmp_path)
    status = fleet_status(tmp_path)
    assert "2/2 ok, 0 failed, complete" in status
    assert "elapsed" in status and "points/s" in status
    assert "completed 2, failed 0, pending 0" in status
    # Identical when asked again later: no live clock read on this path.
    assert fleet_status(tmp_path) == status


def test_fleet_status_without_telemetry_falls_back_to_counts(tmp_path):
    run_fleet(small_validation_spec(), jobs=1, state_dir=tmp_path,
              telemetry=False)
    status = fleet_status(tmp_path)
    assert "no telemetry timestamps journalled" in status
    assert "completed 2, failed 0, pending 0" in status


def test_fleet_status_telemetry_only_journal_prints_no_rate(tmp_path):
    # A campaign that was journalled and immediately killed: the header
    # and one telemetry marker exist, zero results.  Status must not
    # divide by zero or print a fantasy rate -- it says why instead.
    campaign_dir = tmp_path / "campaign-dead"
    campaign_dir.mkdir()
    from repro.obs.telemetry import EVENT_CAMPAIGN_STARTED, record

    (campaign_dir / "journal.jsonl").write_text(
        json.dumps({"campaign": "dead", "kind": "chaos", "total_points": 4})
        + "\n"
        + json.dumps(
            record(EVENT_CAMPAIGN_STARTED, ts=100.0, campaign="dead",
                   kind="chaos")
        )
        + "\n"
    )
    status = fleet_status(tmp_path)
    assert "0/4 ok" in status
    assert "telemetry window too narrow for a rate" in status
    assert "points/s" not in status


def test_fleet_watch_renders_finished_campaign_and_stops(tmp_path):
    spec = small_validation_spec()
    run_fleet(spec, jobs=1, state_dir=tmp_path)
    lines = []
    prog = fleet_watch(tmp_path, emit=lines.append)
    assert prog is not None and prog.finished
    assert len(lines) == 1  # finished campaign: one render, no tailing
    assert f"{spec.campaign_id()} [validation]" in lines[0]
    assert "2/2 done" in lines[0]
    assert "finished in" in lines[0]


def test_fleet_watch_honors_one_shot_and_max_updates(tmp_path):
    spec = small_validation_spec()
    path = journal_path(spec, tmp_path)
    journal = Journal.create(path, spec)  # campaign still "running"
    journal.record_telemetry(
        telemetry.record(telemetry.EVENT_CAMPAIGN_STARTED, ts=1.0,
                         campaign=spec.campaign_id(), kind=spec.kind)
    )
    journal.record_ok(spec.points[0], 1, {"agrees": True})
    journal.close()
    lines = []
    prog = fleet_watch(tmp_path, emit=lines.append, follow=False)
    assert prog is not None and not prog.finished
    assert len(lines) == 1 and "1/2 done" in lines[0]
    lines.clear()
    prog = fleet_watch(tmp_path, emit=lines.append, max_updates=2,
                       interval_s=0.01)
    assert len(lines) == 2


def test_fleet_watch_campaign_filter_and_empty_dir(tmp_path):
    assert fleet_watch(tmp_path / "nothing", emit=lambda _l: None) is None
    spec = small_validation_spec()
    run_fleet(spec, jobs=1, state_dir=tmp_path)
    lines = []
    assert fleet_watch(tmp_path, campaign="no-such-campaign",
                       emit=lines.append) is None
    assert "no campaign journal" in lines[0]
    prog = fleet_watch(tmp_path, campaign=spec.campaign_id()[:6],
                       emit=lambda _l: None)
    assert prog is not None and prog.finished
