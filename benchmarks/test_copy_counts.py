"""COPIES: the Section 2 copy arithmetic, measured for the user-process
relay, direct driver-to-driver transfer and pointer passing.  Our source
device (the VCA) is not DMA-capable (footnote 3's byte-wide interface),
and the Token Ring adapter is.  The paper's claims:
``repro.experiments.claims.COPY_COUNTS``.
"""

from repro.experiments.claims import COPY_COUNTS
from repro.experiments.reporting import emit


def test_copy_counts_match_section_2():
    measured = COPY_COUNTS.run()
    emit(COPY_COUNTS.name, COPY_COUNTS.report(measured))

    for claim, value in COPY_COUNTS.banded(measured):
        assert claim.holds(value), (claim.label, value, claim.band)
