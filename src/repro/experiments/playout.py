"""Playout-buffer experiments: Section 6's buffer sizing and CD audio.

Each plays a measured arrival trace out of a
:class:`~repro.core.buffering.PlayoutBuffer`:

* :func:`run_buffer_sizing` -- Section 6: "the buffer space needed for
  150KBytes/sec CTMSP data transfer is under 25KBytes", checked against a
  Test Case B arrival trace with ring insertions, next to a buffer sized
  only for the 40 ms ordinary worst case;
* :func:`run_cd_audio` / :func:`play_cd_audio` -- Section 1's Compact Disc
  audio (176.4 KB/s) over CTMSP.

``repro.experiments.claims`` runs these for their ``results/`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buffering import PlayoutBuffer, max_drawdown_bytes, required_buffer_bytes
from repro.core.session import CTMSSession
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import test_case_b
from repro.experiments.testbed import HostConfig, Testbed
from repro.hardware import calibration
from repro.sim.units import MS, SEC
from repro.workloads.background import BackgroundTraffic
from repro.workloads.media import CD_AUDIO

RATE = calibration.CTMSP_STREAM_RATE_BYTES_PER_SEC  # ~166 KB/s offered


def _play(arrivals: list[int], capacity: int, rate: float, packet_bytes: int,
          prefill: int) -> PlayoutBuffer:
    """Replay ``arrivals`` through a buffer of ``capacity`` bytes."""
    buf = PlayoutBuffer(capacity_bytes=capacity, rate_bytes_per_sec=rate,
                        packet_bytes=packet_bytes, prefill_bytes=prefill)
    buf.run(arrivals)
    buf.finish(arrivals[-1])
    return buf


@dataclass
class BufferSizing:
    """Section 6's sizing, and two buffers replaying one measured trace."""

    insertions: int
    #: The paper's analytic sizing at its nominal 150 KB/s and 130 ms.
    paper_bytes: int
    worst_gap_ns: int
    #: The trace's worst cumulative deficit against a constant drain.
    drawdown_bytes: int
    sized: PlayoutBuffer  # sized for the drawdown
    small: PlayoutBuffer  # sized for the 40 ms ordinary worst case


def run_buffer_sizing(result: RunResult) -> BufferSizing:
    """The playout of a Test Case B run's arrival trace."""
    arrivals = result.stream.arrival_times
    # Exact requirement: the worst cumulative drawdown of the trace (two
    # insertions close together compound, so single-gap sizing can
    # underestimate), at the stream's true 166.7 KB/s (2000 bytes per 12 ms).
    drawdown = max_drawdown_bytes(arrivals, RATE)

    def playout(capacity: int) -> PlayoutBuffer:
        # One packet of headroom above the prefill point so a catch-up
        # burst arriving early does not overflow.
        return _play(arrivals, capacity, RATE, 2000, capacity - 2000)

    return BufferSizing(
        insertions=result.testbed.inserter.stats_insertions,
        paper_bytes=required_buffer_bytes(150_000, 130 * MS),
        worst_gap_ns=max(b - a for a, b in zip(arrivals, arrivals[1:])),
        drawdown_bytes=drawdown,
        sized=playout(drawdown + 2 * 2000),
        small=playout(required_buffer_bytes(RATE, 40 * MS)),
    )


def run_cd_audio(duration_ns: int = 60 * SEC, seed: int = 5, loaded: bool = True):
    """A CD-audio CTMSP stream over Test Case B's ring: loaded (background
    traffic, multiprogramming) or private; returns ``(testbed, session)``."""
    scenario = test_case_b(duration_ns=duration_ns, seed=seed)
    bed = Testbed(seed=seed, mac_utilization=scenario.mac_utilization)
    tx_tr, _ = scenario.transmitter_config()
    rx_tr, rx_vca = scenario.receiver_config()
    tx = bed.add_host(HostConfig(
        name="transmitter", multiprogramming=loaded, tr=tx_tr, vca=CD_AUDIO.vca_config()
    ))
    rx = bed.add_host(
        HostConfig(name="receiver", multiprogramming=loaded, tr=rx_tr, vca=rx_vca)
    )
    background = None
    if loaded:  # the background stations join the ring only when loaded
        background = BackgroundTraffic(bed, [tx, rx], load=scenario.background_load)
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    if background is not None:
        background.start()
    bed.run(duration_ns)
    return bed, session


@dataclass
class CDAudioPlayout:
    """A private-ring CD-audio stream and its playout."""

    session: CTMSSession
    buffer: PlayoutBuffer


def play_cd_audio(duration_ns: int = 60 * SEC, seed: int = 5) -> CDAudioPlayout:
    """CD audio on a private ring, played out of a buffer sized for 60 ms
    of delivery jitter."""
    _bed, session = run_cd_audio(duration_ns, seed, loaded=False)
    arrivals = session.stats.arrival_times
    capacity = required_buffer_bytes(
        CD_AUDIO.bytes_per_sec, 60 * MS, packet_bytes=CD_AUDIO.packet_bytes
    )
    # Only the audio payload is played out; the CTMSP header is not.
    return CDAudioPlayout(session, _play(
        arrivals, capacity, CD_AUDIO.playout_rate(), CD_AUDIO.bytes_per_period,
        capacity - 2 * CD_AUDIO.packet_bytes,
    ))
