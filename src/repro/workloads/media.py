"""Media source descriptions.

The paper's motivating rates:

* Section 1's initial test: "16KBytes/sec of audio data (8K samples/sec,
  12 bit/sample).  This worked extremely well within the current UNIX
  model."
* the failing test: "150KBytes/sec to simulate compressed video or Compact
  Disc quality audio";
* CD audio proper: "176.4KBytes/sec (44.1K samples, 16 bits per sample,
  2 channels)".

A :class:`MediaSource` translates a rate into the VCA-driver configuration
(bytes per 12 ms interrupt period) and playout parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.ctmsp import CTMSP_HEADER_BYTES
from repro.drivers.vca import VCADriverConfig
from repro.hardware import calibration
from repro.sim.units import SEC


@dataclass(frozen=True)
class MediaSource:
    """One continuous-time media type."""

    name: str
    bytes_per_sec: int
    description: str

    @property
    def bytes_per_period(self) -> int:
        """Data bytes produced per 12 ms VCA interrupt period."""
        return math.ceil(
            self.bytes_per_sec * calibration.VCA_INTERRUPT_PERIOD / SEC
        )

    @property
    def packet_bytes(self) -> int:
        """Information-field bytes per CTMSP packet carrying one period."""
        return self.bytes_per_period + CTMSP_HEADER_BYTES

    def vca_config(self, **overrides) -> VCADriverConfig:
        """VCA driver configuration streaming this source."""
        defaults = dict(
            packet_bytes=self.packet_bytes,
            device_bytes_per_period=self.bytes_per_period,
        )
        defaults.update(overrides)
        return VCADriverConfig(**defaults)

    def playout_rate(self) -> float:
        """Consumption rate for a playout buffer, bytes/sec.

        Computed from the per-period packetization (not the nominal rate) so
        that drain exactly matches production; a nominal-rate drain would
        drift against the ceil-rounded per-period payload.
        """
        from repro.sim.units import SEC as _SEC

        return self.bytes_per_period * _SEC / calibration.VCA_INTERRUPT_PERIOD


#: "8K samples/sec, 12 bit/sample" -- the paper rounds to 16 KB/s.
TELEPHONE_AUDIO = MediaSource(
    name="telephone-audio",
    bytes_per_sec=16_000,
    description="8K samples/sec, 12 bit/sample voice (the working baseline)",
)

#: The failing stock-UNIX test and the CTMSP prototype's rate.
COMPRESSED_VIDEO = MediaSource(
    name="compressed-video",
    bytes_per_sec=150_000,
    description="150 KB/s compressed video / CD-quality surrogate",
)

#: "44.1K samples, 16 bits per sample, 2 channels".
CD_AUDIO = MediaSource(
    name="cd-audio",
    bytes_per_sec=176_400,
    description="Compact Disc audio, 44.1 kHz x 16 bit x 2 channels",
)
