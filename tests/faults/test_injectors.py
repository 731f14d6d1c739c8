"""Tests for the fault injector: each kind wounds the right layer."""

import pytest

from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC


def streaming_bed(seed=11):
    bed = _Testbed(seed=seed)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    return bed, tx, rx, session


def test_arming_twice_is_an_error():
    bed, *_ = streaming_bed()
    injector = FaultInjector(bed, FaultPlan().purge(1 * SEC))
    injector.arm()
    with pytest.raises(RuntimeError, match="already armed"):
        injector.arm()


def test_purge_goes_through_the_active_monitor():
    bed, _tx, _rx, _session = streaming_bed()
    FaultInjector(bed, FaultPlan().purge(1 * SEC)).arm()
    bed.run(2 * SEC)
    assert bed.monitor.stats_purges_issued == 1
    assert bed.ring.stats_purges == 1


def test_purge_burst_issues_the_whole_burst():
    bed, _tx, _rx, _session = streaming_bed()
    FaultInjector(bed, FaultPlan().purge_burst(1 * SEC, count=10)).arm()
    bed.run(2 * SEC)
    assert bed.ring.stats_purges == 10


def test_soft_error_storm_purges_with_the_seeded_rng():
    bed, _tx, _rx, _session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().soft_error_storm(
            1 * SEC, duration_ns=2 * SEC, rate_per_hour=3600.0 * 50
        ),
    ).arm()
    bed.run(4 * SEC)
    # 50/hour-equivalent rate over 2 s -> ~100 expected; wide Poisson band.
    assert 40 <= bed.ring.stats_purges <= 200


def test_frame_loss_eats_ctmsp_silently_then_lifts():
    bed, _tx, _rx, session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().frame_loss(1 * SEC, duration_ns=200 * MS, protocol="ctmsp"),
    ).arm()
    bed.run(3 * SEC)
    assert bed.ring.stats_frames_lost_to_fault > 0
    assert session.sink_tracker.lost_packets > 0
    # The filter is removed when the window closes; the stream recovered.
    assert bed.ring.fault_filters == []
    assert session.stats.last_arrival > 2 * SEC


def test_frame_loss_spares_other_protocols():
    bed, _tx, _rx, session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().frame_loss(1 * SEC, duration_ns=200 * MS, protocol="llc"),
    ).arm()
    bed.run(2 * SEC)
    assert session.sink_tracker.lost_packets == 0


def test_token_starvation_counts_hostile_frames():
    bed, _tx, _rx, _session = streaming_bed()
    injector = FaultInjector(
        bed, FaultPlan().token_starvation(1 * SEC, duration_ns=500 * MS)
    )
    injector.arm()
    bed.run(2 * SEC)
    assert injector.stats_hostile_frames > 50
    assert "chaos-hostile" in bed.ring.stats_by_protocol


def test_tx_stall_delays_the_adapter():
    bed, tx, _rx, _session = streaming_bed()
    FaultInjector(
        bed, FaultPlan().tx_stall(1 * SEC, duration_ns=30 * MS, host="transmitter")
    ).arm()
    bed.run(2 * SEC)
    assert tx.tr_adapter.stats_tx_stalled_ns > 0


def test_cpu_steal_contention_is_balanced():
    bed, _tx, rx, _session = streaming_bed()
    FaultInjector(
        bed,
        FaultPlan().cpu_steal(1 * SEC, duration_ns=500 * MS, host="receiver", layers=3),
    ).arm()
    bed.run(2 * SEC)
    # Every started contention layer ended when the window closed.
    assert rx.machine.cpu._contention_sources == 0


def test_unknown_host_is_skipped_and_counted():
    bed, _tx, _rx, _session = streaming_bed()
    injector = FaultInjector(
        bed, FaultPlan().cpu_steal(1 * SEC, duration_ns=SEC, host="nonesuch")
    )
    injector.arm()
    bed.run(2 * SEC)
    assert injector.stats_skipped_no_target == 1
    assert injector.stats_fired == 0


def test_same_seed_and_plan_wound_identically():
    def run():
        bed, _tx, _rx, session = streaming_bed(seed=23)
        plan = (
            FaultPlan()
            .purge_burst(1 * SEC, count=8)
            .token_starvation(1500 * MS, duration_ns=400 * MS)
            .frame_loss(2 * SEC, duration_ns=100 * MS, fraction=0.5)
        )
        FaultInjector(bed, plan).arm()
        bed.run(3 * SEC)
        t = session.sink_tracker
        return (
            t.delivered,
            t.lost_packets,
            t.gaps,
            bed.ring.stats_frames_lost_to_fault,
            session.stats.arrival_times,
        )

    assert run() == run()
