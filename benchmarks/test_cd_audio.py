"""CDAUDIO: Section 1's motivating medium, end to end.

"with Compact Disc audio, the transfer rate is 176.4KBytes/sec (44.1K
samples, 16 bits per sample, 2 channels). ... The destination machine must
then receive the data from the network and redirect the flow ... in such a
way that no discernible glitches are heard."

Two regimes:

* on a **private ring** (Test Case A conditions) CD audio streams
  glitch-free through a sub-25KB playout buffer;
* on the **loaded public ring** 176.4 KB/s sits at the very edge of the
  prototype adapter's service capacity (~10.4 ms per 2134-byte packet
  against a 12 ms period): the transmit queue grows under interference and
  a fraction of a percent of periods are shed at the source -- a real
  finding about why the paper evaluated at 150 KB/s.
"""

from repro.core.buffering import PlayoutBuffer, required_buffer_bytes
from repro.core.session import CTMSSession
from repro.experiments.reporting import emit
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.experiments.testbed import HostConfig, Testbed
from repro.obs.metrics import format_table
from repro.sim.units import MS, SEC
from repro.workloads.background import BackgroundTraffic
from repro.workloads.media import CD_AUDIO


def run_cd_audio(duration_ns=60 * SEC, seed=5, loaded=True):
    scenario = scenario_b(duration_ns=duration_ns, seed=seed)
    bed = Testbed(seed=seed, mac_utilization=scenario.mac_utilization)
    tx_tr, _ = scenario.transmitter_config()
    rx_tr, rx_vca = scenario.receiver_config()
    tx = bed.add_host(
        HostConfig(
            name="transmitter",
            multiprogramming=loaded,
            tr=tx_tr,
            vca=CD_AUDIO.vca_config(),
        )
    )
    rx = bed.add_host(
        HostConfig(
            name="receiver", multiprogramming=loaded, tr=rx_tr, vca=rx_vca
        )
    )
    background = None
    if loaded:
        background = BackgroundTraffic(
            bed, [tx, rx], load=scenario.background_load
        )
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    if background is not None:
        background.start()
    bed.run(duration_ns)
    return bed, session


def test_cd_audio_glitch_free_on_private_ring():
    bed, session = run_cd_audio(loaded=False)
    stats = session.stats
    tracker = session.sink_tracker

    # Full-rate delivery, in order, lossless.
    assert tracker.lost_packets == 0
    assert tracker.reordered == 0
    achieved = stats.throughput_bytes_per_sec()
    assert achieved > 0.99 * CD_AUDIO.bytes_per_sec

    # Play it out: a sub-25KB buffer absorbs all delivery jitter.
    capacity = required_buffer_bytes(
        CD_AUDIO.bytes_per_sec, 60 * MS, packet_bytes=CD_AUDIO.packet_bytes
    )
    buf = PlayoutBuffer(
        capacity_bytes=capacity,
        rate_bytes_per_sec=CD_AUDIO.playout_rate(),
        # Only the audio payload is played out; the CTMSP header is not.
        packet_bytes=CD_AUDIO.bytes_per_period,
        prefill_bytes=capacity - 2 * CD_AUDIO.packet_bytes,
    )
    buf.run(stats.arrival_times)
    buf.finish(stats.arrival_times[-1])
    assert capacity < 25_000
    assert buf.glitches == 0
    assert buf.overflow_drops == 0

    emit(
        "cd_audio",
        format_table(
            "CD-quality audio (176.4 KB/s) over CTMSP, private ring",
            ["quantity", "value"],
            [
                ["packets delivered", str(stats.delivered)],
                ["achieved rate", f"{achieved / 1000:.1f} KB/s"],
                ["lost / duplicated / reordered", "0 / 0 / 0"],
                ["max source-to-sink latency", f"{stats.max_latency_ns() / MS:.1f} ms"],
                ["playout buffer", f"{capacity} B"],
                ["discernible glitches", str(buf.glitches)],
            ],
        ),
    )


def test_cd_audio_is_at_capacity_edge_on_loaded_ring():
    """176.4 KB/s exceeds what the prototype sustains under normal load --
    the capacity reason the paper's evaluation rate is 150 KB/s."""
    bed, session = run_cd_audio(seed=5, loaded=True)
    tx = bed.hosts["transmitter"]
    tracker = session.sink_tracker
    # The stream mostly works...
    assert tracker.loss_fraction() < 0.02
    # ...but the transmit queue builds under interference and some source
    # periods are shed -- unlike the 150 KB/s stream, which never loses any
    # (see test_baseline_rates.py).
    assert tx.tr_driver.stats_tx_queue_peak >= 5
    assert tx.vca_driver.stats_drops_no_mbufs + tracker.lost_packets >= 1
