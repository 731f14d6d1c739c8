"""BUFFER: the Section 6 buffer-space conclusion.

Paper: "the worst case times between transmission and reception of a single
packet is 40 milliseconds.  There are two exceptional data points within the
120 to 130 millisecond range. ... Even with these exceptional data points,
the buffer space needed for 150KBytes/sec CTMSP data transfer is under
25KBytes."

We check the sizing against a *measured* loaded-ring trace with ring
insertions (``repro.experiments.claims.BUFFER_SIZING``).
"""

from repro.experiments.claims import BUFFER_SIZING
from repro.experiments.reporting import emit


def test_buffer_sizing_under_25kb():
    sizing = BUFFER_SIZING.run()
    emit(BUFFER_SIZING.name, BUFFER_SIZING.report(sizing))

    assert sizing.insertions >= 1
    for claim, value in BUFFER_SIZING.banded(sizing):
        assert claim.holds(value), (claim.label, value, claim.band)
    assert sizing.sized.overflow_drops == 0
