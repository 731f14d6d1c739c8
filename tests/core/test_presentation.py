"""Tests for the live presentation machine."""

import pytest

from repro.core.presentation import PresentationMachine
from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC


RATE = 2000 / 0.012  # the prototype stream


def feed(player, sim, times, nbytes=2000):
    for t in times:
        sim.schedule(t, player.on_packet, nbytes)


def test_steady_stream_plays_without_glitches():
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=6000, capacity_bytes=12000
    )
    times = [i * 12 * MS for i in range(100)]
    feed(player, sim, times)
    sim.run(until=times[-1] + 1 * MS)  # end of the media
    assert player.glitches == [] and player.overflow_drops == 0
    assert player.playout_started_at is not None
    # Nearly everything buffered has been played out.
    assert player.bytes_played > 90 * 2000


def test_stall_produces_a_timed_glitch():
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=4000, capacity_bytes=8000
    )
    times = [i * 12 * MS for i in range(10)]
    # 200 ms outage, then the stream resumes.
    times += [times[-1] + 200 * MS + i * 12 * MS for i in range(10)]
    feed(player, sim, times)
    sim.run(until=times[-1] + 1 * MS)
    assert player.glitch_count == 1
    glitch = player.glitches[0]
    # The glitch begins when the 4000-byte buffer runs out, ~24ms after the
    # last pre-outage packet.
    assert times[9] < glitch.at_ns < times[9] + 40 * MS
    assert glitch.starved_for_ns > 100 * MS


def test_glitch_detected_live_by_deadline_not_only_on_next_arrival():
    """The deadline timer notices starvation even with no further input."""
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=2000, capacity_bytes=8000
    )
    feed(player, sim, [0, 12 * MS])
    sim.run(until=1 * SEC)  # stream stops entirely
    assert player.glitch_count == 1


def test_overflow_drops_counted():
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=2000, capacity_bytes=4000
    )
    for _ in range(3):
        player.on_packet(2000)
    assert player.overflow_drops == 1


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PresentationMachine(sim, 0, 100, 200)
    with pytest.raises(ValueError):
        PresentationMachine(sim, 100.0, 300, 200)


def test_attached_to_a_real_session():
    bed = _Testbed(seed=17, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    rx = bed.add_host(HostConfig(name="rx"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    player = PresentationMachine(
        bed.sim, 1984 / 0.012, prefill_bytes=6000, capacity_bytes=12000
    )
    bed.run(100 * MS)  # let the sink handles install
    player.attach_to_vca(rx.vca_driver)
    bed.run(5 * SEC)
    session.stop()
    assert session.stats.delivered > 400
    assert player.glitches == [] and player.overflow_drops == 0
    assert player.peak_level <= 12000


def test_attached_player_hears_the_purge_outage():
    bed = _Testbed(seed=17, mac_utilization=0.0)
    tx = bed.add_host(HostConfig(name="tx"))
    rx = bed.add_host(HostConfig(name="rx"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    player = PresentationMachine(
        bed.sim, 1984 / 0.012, prefill_bytes=4000, capacity_bytes=10000
    )
    bed.run(100 * MS)
    player.attach_to_vca(rx.vca_driver)
    bed.run(1 * SEC)
    # A 10-purge burst: ~100ms of silence -- audible with a 4KB prefill.
    for i in range(10):
        bed.sim.schedule(i * 10 * MS, bed.ring.purge)
    bed.run(2 * SEC)
    assert player.glitch_count >= 1


def test_skip_ahead_bounds_a_long_starvation():
    """Graceful degradation: one bounded dropout instead of an endless stall."""
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=4000, capacity_bytes=8000,
        skip_ahead_after_ns=50 * MS,
    )
    times = [i * 12 * MS for i in range(10)]
    # A 400 ms outage, then the stream returns.
    resume = times[-1] + 400 * MS
    times += [resume + i * 12 * MS for i in range(20)]
    feed(player, sim, times)
    sim.run(until=times[-1] + 1 * MS)
    assert player.glitch_count == 1
    # The glitch closed at the skip window, not at the 400 ms outage length.
    assert player.glitches[0].starved_for_ns == 50 * MS
    assert player.skips == 1
    assert player.skipped_ns > 300 * MS
    # After the skip, playback resumed at the live edge without new glitches.
    assert player.bytes_played > 20 * 2000


def test_short_starvation_does_not_skip():
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=4000, capacity_bytes=8000,
        skip_ahead_after_ns=200 * MS,
    )
    times = [i * 12 * MS for i in range(10)]
    times += [times[-1] + 100 * MS + i * 12 * MS for i in range(10)]
    feed(player, sim, times)
    sim.run(until=times[-1] + 1 * MS)
    assert player.skips == 0
    assert player.glitch_count == 1
    assert player.glitches[0].starved_for_ns < 200 * MS


def test_skip_ahead_disabled_by_default():
    sim = Simulator()
    player = PresentationMachine(
        sim, RATE, prefill_bytes=4000, capacity_bytes=8000
    )
    feed(player, sim, [i * 12 * MS for i in range(5)])
    sim.run(until=2 * SEC)
    assert player.skips == 0
    assert player.skipped_ns == 0


def test_skip_ahead_window_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        PresentationMachine(
            sim, RATE, prefill_bytes=100, capacity_bytes=200,
            skip_ahead_after_ns=0,
        )
