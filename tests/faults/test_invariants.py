"""Tests for the stream invariant monitor."""

from types import SimpleNamespace

from repro.core.presentation import PresentationMachine
from repro.core.session import CTMSSession
from repro.core.stream import StreamStats
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.invariants import (
    FAILOVER_GAP,
    INTER_ARRIVAL,
    LOSS_FRACTION,
    StreamInvariantMonitor,
    THROUGHPUT,
)
from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC


def monitored_bed(seed=17, **monitor_kwargs):
    bed = _Testbed(seed=seed)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    monitor = StreamInvariantMonitor(bed, session, **monitor_kwargs).start()
    return bed, session, monitor


def test_healthy_stream_holds_every_invariant():
    bed, _session, monitor = monitored_bed(
        min_throughput_bytes_per_sec=150_000.0
    )
    bed.run(3 * SEC)
    assert monitor.finish() == []
    assert monitor.ok()


def test_sustained_outage_trips_inter_arrival_while_stalled():
    bed, _session, monitor = monitored_bed()
    FaultInjector(
        bed,
        FaultPlan().frame_loss(1 * SEC, duration_ns=400 * MS, protocol="ctmsp"),
    ).arm()
    bed.run(3 * SEC)
    monitor.finish()
    assert INTER_ARRIVAL in monitor.violated()
    [violation] = [v for v in monitor.violations if v.invariant == INTER_ARRIVAL]
    # Tripped *during* the stall (in-progress gap), not after recovery.
    assert violation.at_ns < 1 * SEC + 400 * MS + 50 * MS
    assert violation.snapshot["delivered"] > 0
    assert "gap" in violation.detail


def test_first_violation_is_recorded_once_per_invariant():
    bed, _session, monitor = monitored_bed()
    FaultInjector(
        bed,
        FaultPlan()
        .frame_loss(1 * SEC, duration_ns=400 * MS, protocol="ctmsp")
        .frame_loss(2 * SEC, duration_ns=400 * MS, protocol="ctmsp"),
    ).arm()
    bed.run(4 * SEC)
    monitor.finish()
    names = monitor.violated()
    assert len(names) == len(set(names))


def test_loss_grace_tolerates_the_papers_single_packets():
    bed, session, monitor = monitored_bed()
    # A brief outage eats a packet or three -- the loss level the paper
    # decided it could "safely ignore".
    FaultInjector(
        bed, FaultPlan().frame_loss(1 * SEC, duration_ns=30 * MS)
    ).arm()
    bed.run(4 * SEC)
    monitor.finish()
    assert 0 < session.sink_tracker.lost_packets <= monitor.loss_grace_packets
    assert LOSS_FRACTION not in monitor.violated()


def test_heavy_loss_trips_the_fraction():
    bed, session, monitor = monitored_bed()
    FaultInjector(
        bed,
        FaultPlan().frame_loss(1 * SEC, duration_ns=500 * MS, protocol="ctmsp"),
    ).arm()
    bed.run(3 * SEC)
    monitor.finish()
    assert session.sink_tracker.lost_packets > monitor.loss_grace_packets
    assert LOSS_FRACTION in monitor.violated()


def test_throughput_checked_at_finish():
    bed, _session, monitor = monitored_bed(
        min_throughput_bytes_per_sec=10_000_000.0  # unreachable
    )
    bed.run(2 * SEC)
    violations = monitor.finish()
    assert THROUGHPUT in [v.invariant for v in violations]


def test_playout_underrun_invariant_watches_the_presentation():
    bed = _Testbed(seed=17)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    player = PresentationMachine(
        bed.sim,
        rate_bytes_per_sec=2000 / 0.012,
        prefill_bytes=6000,
        capacity_bytes=40000,
    )
    player.attach_to_vca(rx.vca_driver)
    monitor = StreamInvariantMonitor(bed, session, presentation=player).start()
    FaultInjector(
        bed,
        FaultPlan().frame_loss(1 * SEC, duration_ns=500 * MS, protocol="ctmsp"),
    ).arm()
    bed.run(3 * SEC)
    monitor.finish()
    assert "playout_underrun" in monitor.violated()
    [violation] = [
        v for v in monitor.violations if v.invariant == "playout_underrun"
    ]
    assert violation.snapshot["playout_glitches"] >= 1


# ----------------------------------------------------------------------
# failover-window exemptions, against a scripted arrival stream
# ----------------------------------------------------------------------
class _StubTracker:
    reordered = lost_packets = gaps = duplicates = 0

    def __init__(self, stats):
        self._stats = stats

    @property
    def delivered(self):
        return self._stats.delivered

    def loss_fraction(self):
        return 0.0


class _StubSession:
    def __init__(self):
        self.stats = StreamStats()
        self.sink_tracker = _StubTracker(self.stats)


class _StubRing:
    stats_purges = stats_frames_lost_to_purge = stats_frames_lost_to_fault = 0

    def pending_count(self):
        return 0


class _StubFailover:
    """A control-plane handle whose windows the test rewrites mid-run."""

    def __init__(self, windows=()):
        self.windows = list(windows)

    def failover_windows(self):
        return list(self.windows)

    def failover_records(self):
        return []


def scripted_monitor(arrivals_ms, failover=None, **monitor_kwargs):
    """A monitor over a stream that delivers exactly at ``arrivals_ms``."""
    bed = SimpleNamespace(sim=Simulator(), ring=_StubRing())
    session = _StubSession()
    for t in arrivals_ms:
        bed.sim.at(
            t * MS,
            lambda: session.stats.record_delivery(
                SimpleNamespace(info_bytes=2000, born_at=bed.sim.now),
                bed.sim.now,
            ),
        )
    monitor = StreamInvariantMonitor(
        bed, session, failover_source=failover, **monitor_kwargs
    ).start()
    return bed, monitor


#: 12 ms media period with a 180 ms hole (20 -> 200 ms) that closes before
#: the monitor's first tick at its 250 ms grace, so only the scan of past
#: gaps -- never the live-stall check -- can see it.
EARLY_HOLE = [0, 12, 20] + list(range(200, 1200, 12))


def stall(resume_ms):
    """12 ms media period that stalls after 996 ms until ``resume_ms``."""
    return list(range(0, 1000, 12)) + list(range(resume_ms, 2400, 12))


def test_gap_inside_a_failover_window_is_exempt():
    bed, monitor = scripted_monitor(
        EARLY_HOLE, failover=_StubFailover([(20 * MS, 200 * MS)])
    )
    bed.sim.run(until=1200 * MS)
    assert monitor.finish() == []


def test_gap_outside_every_window_trips_on_the_first_tick():
    # A closed window elsewhere leaves the hole unexempted; with windows or
    # without, the first tick (250 ms) finds it.
    for failover in (None, _StubFailover([(600 * MS, 612 * MS)])):
        bed, monitor = scripted_monitor(EARLY_HOLE, failover=failover)
        bed.sim.run(until=1200 * MS)
        monitor.finish()
        [violation] = monitor.violations
        assert violation.invariant == INTER_ARRIVAL
        assert violation.at_ns == 250 * MS
        assert "180.000ms" in violation.detail


def test_window_appearing_after_its_gap_exempts_it_retroactively():
    failover = _StubFailover()
    bed, monitor = scripted_monitor(
        EARLY_HOLE, failover=failover, grace_ns=0, check_period_ns=12 * MS
    )
    # The hole (20 -> 200 ms) is live until 200 ms; a window covering it
    # appears at 100 ms, before the live gap passes 150 ms at 170 ms.
    bed.sim.at(100 * MS, failover.windows.append, (20 * MS, None))
    bed.sim.at(200 * MS, failover.windows.__setitem__, 0, (20 * MS, 200 * MS))
    bed.sim.run(until=1200 * MS)
    assert monitor.finish() == []


def test_open_window_exempts_the_live_stall():
    failover = _StubFailover()
    bed, monitor = scripted_monitor(stall(1700), failover=failover)
    # Detection 50 ms into the stall opens the window; it stays open.
    bed.sim.at(1046 * MS, failover.windows.append, (996 * MS, None))
    bed.sim.run(until=1600 * MS)
    assert monitor.finish() == []
    # Without the window the same stall trips while it is in progress.
    bed, monitor = scripted_monitor(stall(1700))
    bed.sim.run(until=1600 * MS)
    monitor.finish()
    assert monitor.violated() == [INTER_ARRIVAL]
    assert monitor.violations[0].at_ns == 1162 * MS


def test_window_closing_over_budget_trips_failover_gap():
    for resume_ms, tripped in ((1500, []), (1700, [FAILOVER_GAP])):
        failover = _StubFailover()
        bed, monitor = scripted_monitor(
            stall(resume_ms),
            failover=failover,
            max_interarrival_ns=None,
            failover_gap_budget_ns=600 * MS,
        )
        # The control plane reports the window only once it has closed.
        bed.sim.at(
            resume_ms * MS,
            failover.windows.append,
            (996 * MS, resume_ms * MS),
        )
        bed.sim.run(until=2000 * MS)
        monitor.finish()
        assert monitor.violated() == tripped
    [violation] = monitor.violations
    assert "closed at 704.000ms" in violation.detail
    assert violation.at_ns == 1714 * MS
