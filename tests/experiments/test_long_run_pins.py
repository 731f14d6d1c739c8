"""Longer-run pins for the stream-invariant path and the event kernel.

The failover golden is a 3 s run and the chaos smoke is short; longer runs
see many more arrivals between failover-window changes, which is where an
incremental worst-gap fold could drift from a full rescan.  These sha256
digests were recorded before the monitor's worst-gap check became
incremental, so any drift in a verdict, a count or an event total shows.

The ``(events, packets)`` pins cover three grains of the same seeded
input: one clean CTMSP stream, one chaos point, and a small serial fleet
campaign.  The same seed must dispatch the same calendar, so a kernel
change that drops, adds or reorders a calendar entry shows here.
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
    "5d43d194cc12f16194437d9bbb77b4caecaf6ed4beae9d32ed96526ef8818394"
)

CHAOS_4S_SEED_1 = {
    "e07503f76764.stock:1": (
        "a9a42e060f86775ab00aef92e2925027c0b7f31437a78e4c871b86dcb62abd7a"
    ),
    "e07503f76764.ctmsp:1": (
        "f39e10b077d3b0bb4c47ddce16989dee24ca950ba514a268442f13868fdc0bae"
    ),
    "5ce19f42144e.stock:1": (
        "aef0718e83eb9ec9db43aa6cd07d43fac4d9e9cb4af66d011a7b83b2e643b084"
    ),
    "5ce19f42144e.ctmsp:1": (
        "54b8eed7b0c458c97d46ba74267043890ab4bfa29c3ff8efd2f109fa812c6aa9"
    ),
    "7323fea8b047.stock:1": (
        "5bd1304fcaa5f93ae98358592a6c09153f4ef0dee5f4f49449b2ecab939285c7"
    ),
    "7323fea8b047.ctmsp:1": (
        "be96fd020205665bd51c2be1d34d04c403d901b2bad351951cd222e4e9246dc6"
    ),
}


@pytest.mark.chaos
def test_eight_second_failover_campaign_is_pinned():
    report = run_failover_campaign(seed=1, duration_ns=8 * SEC)
    h = hashlib.sha256(report.render().encode())
    for run in report.runs:
        h.update(json.dumps(run.as_dict(), sort_keys=True).encode())
    assert h.hexdigest() == FAILOVER_8S_SEED_1


@pytest.mark.chaos
def test_four_second_chaos_fleet_points_are_pinned(tmp_path):
    spec = chaos_fleet_spec([1], duration_ns=4 * SEC)
    fleet = run_fleet(spec, jobs=1, state_dir=tmp_path)
    assert fleet.ok()
    digests = {
        point.key: hashlib.sha256(
            json.dumps(fleet.result_for(point.key), sort_keys=True).encode()
        ).hexdigest()
        for point in spec.points
    }
    assert digests == CHAOS_4S_SEED_1


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
        (lambda _dir: _clean_stream(), (11703, 332)),
        (lambda _dir: _chaos_point(), (12604, 326)),
        (_fleet_campaign, (24234, 657)),
    ],
    ids=["kernel", "chaos_point", "fleet_campaign"],
)
def test_event_and_packet_counts_are_pinned(workload, expected, tmp_path):
    assert workload(tmp_path) == expected
