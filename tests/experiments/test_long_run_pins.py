"""Longer-run pins for the stream-invariant path and the event kernel.

The failover golden is a 3 s run and the chaos smoke is short; longer runs
see many more arrivals between failover-window changes, which is where an
incremental worst-gap fold could drift from a full rescan.  The sha256
digests cover every verdict and count a run reports *except* ``events``,
so any drift in what the model computed shows there.

``events`` (calendar entries dispatched) is pinned on its own: it says how
many entries the model took, which a kernel or ring change may lower
without changing any outcome.  The ``(events, packets)`` pins cover three
grains of the same seeded input: one clean CTMSP stream, one chaos point,
and a small serial fleet campaign.  The same seed must dispatch the same
calendar, so a change that drops, adds or reorders a calendar entry shows
here.
"""

import hashlib
import json

import pytest

from repro.core.session import CTMSSession
from repro.experiments.failover import run_failover_campaign
from repro.experiments.chaos import build_plan, chaos_fleet_spec, run_one
from repro.experiments.fleet import run_fleet
from repro.experiments.testbed import HostConfig, Testbed as _Testbed
from repro.sim.units import SEC

FAILOVER_8S_SEED_1 = (
    "9c5bc8ddab1ba90f03243e698e3aa8c844fc1f2872e89260d75cda88a8433c15"
)
FAILOVER_8S_SEED_1_EVENTS = [34216, 46216, 53733]

CHAOS_4S_SEED_1 = {
    "e07503f76764.stock:1": (
        "197b2e5f191f31af9454666506286c8a6a6c837f9678175477349bb23506353b"
    ),
    "e07503f76764.ctmsp:1": (
        "fc3178cb3ff08b82af2b614dc95da6e348957602dff6627c38cb210d4d446be8"
    ),
    "5ce19f42144e.stock:1": (
        "f78214bec480490dbce8ed421c2886a31120df680730331e7477fbe9d27c4347"
    ),
    "5ce19f42144e.ctmsp:1": (
        "8e85f64ff5093f9d360604bd026e946abbf1df1e426ee2c20b25140838952fcf"
    ),
    "7323fea8b047.stock:1": (
        "f8b465e11a39ff25c357af1178334b96e1daa989fe2b030d293122fcfe59bcca"
    ),
    "7323fea8b047.ctmsp:1": (
        "601f987220f956f8537c805649102af0f0d85b77183146282a635a2af40a8d44"
    ),
}
CHAOS_4S_SEED_1_EVENTS = {
    "e07503f76764.stock:1": 11898,
    "e07503f76764.ctmsp:1": 11543,
    "5ce19f42144e.stock:1": 12257,
    "5ce19f42144e.ctmsp:1": 11803,
    "7323fea8b047.stock:1": 8227,
    "7323fea8b047.ctmsp:1": 13359,
}


def _without_events(result: dict) -> bytes:
    return json.dumps(
        {k: v for k, v in result.items() if k != "events"}, sort_keys=True
    ).encode()


@pytest.mark.chaos
def test_eight_second_failover_campaign_is_pinned():
    report = run_failover_campaign(seed=1, duration_ns=8 * SEC)
    h = hashlib.sha256(report.render().encode())
    for run in report.runs:
        h.update(_without_events(run.as_dict()))
    assert h.hexdigest() == FAILOVER_8S_SEED_1
    assert [run.events for run in report.runs] == FAILOVER_8S_SEED_1_EVENTS


@pytest.mark.chaos
def test_four_second_chaos_fleet_points_are_pinned(tmp_path):
    spec = chaos_fleet_spec([1], duration_ns=4 * SEC)
    fleet = run_fleet(spec, jobs=1, state_dir=tmp_path)
    assert fleet.ok()
    results = {point.key: fleet.result_for(point.key) for point in spec.points}
    digests = {
        key: hashlib.sha256(_without_events(result)).hexdigest()
        for key, result in results.items()
    }
    assert digests == CHAOS_4S_SEED_1
    events = {key: result["events"] for key, result in results.items()}
    assert events == CHAOS_4S_SEED_1_EVENTS


def _clean_stream():
    bed = _Testbed(seed=11)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(4 * SEC)
    return bed.sim.stats_events, session.sink_tracker.delivered


def _chaos_point():
    run = run_one("ctmsp", build_plan(11, 1.0, 4 * SEC), 11, 4 * SEC,
                  intensity=1.0)
    return run.events, run.delivered


def _fleet_campaign(state_dir):
    spec = chaos_fleet_spec([1, 2], duration_ns=2 * SEC, intensities=(1.0,))
    fleet = run_fleet(spec, jobs=1, state_dir=state_dir)
    assert fleet.ok()
    results = [fleet.result_for(point.key) for point in spec.points]
    return (
        sum(r["events"] for r in results),
        sum(r["delivered"] for r in results),
    )


@pytest.mark.parametrize(
    ("workload", "expected"),
    [
        (lambda _dir: _clean_stream(), (11313, 332)),
        (lambda _dir: _chaos_point(), (11852, 326)),
        (_fleet_campaign, (23422, 657)),
    ],
    ids=["kernel", "chaos_point", "fleet_campaign"],
)
def test_event_and_packet_counts_are_pinned(workload, expected, tmp_path):
    assert workload(tmp_path) == expected
