"""CDAUDIO: Section 1's motivating medium (176.4 KB/s), end to end.

* on a **private ring** CD audio streams glitch-free through a sub-25KB
  playout buffer (``repro.experiments.claims.CD_AUDIO``);
* on the **loaded public ring** 176.4 KB/s sits at the very edge of the
  prototype adapter's service capacity (~10.4 ms per 2134-byte packet
  against a 12 ms period): the transmit queue grows under interference and
  a fraction of a percent of periods are shed at the source -- a real
  finding about why the paper evaluated at 150 KB/s.
"""

from repro.experiments.claims import CD_AUDIO
from repro.experiments.playout import run_cd_audio
from repro.experiments.reporting import emit


def test_cd_audio_glitch_free_on_private_ring():
    playout = CD_AUDIO.run()
    emit(CD_AUDIO.name, CD_AUDIO.report(playout))

    for claim, value in CD_AUDIO.banded(playout):
        assert claim.holds(value), (claim.label, value, claim.band)
    # Full-rate delivery, in order, lossless.
    tracker = playout.session.sink_tracker
    assert tracker.lost_packets == 0
    assert tracker.reordered == 0
    assert playout.buffer.overflow_drops == 0


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
