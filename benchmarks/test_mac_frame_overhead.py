"""MACLOAD: Section 4's MAC-frame interrupt-cost argument.

Paper: "the amount of MAC frame traffic on the Token Ring we use is between
0.2% and 1.0%.  The MAC frame packets are on the order of 20 bytes of data.
Given a 4Mbit Token Ring, there would be between 50 and 250 interrupts to
handle MAC frames per second.  This additional interrupt and software
decoding of packet headers would add an unacceptable amount of overhead to
detect the small number of Ring Purges that occur."

We count what a hypothetical pass-MAC-frames-to-host adapter would deliver
across the band.  The paper's claims: ``claims.MAC_FRAME_OVERHEAD``.
"""

from repro.experiments.claims import MAC_FRAME_OVERHEAD
from repro.experiments.reporting import emit


def test_mac_frame_interrupt_rate_band():
    results = MAC_FRAME_OVERHEAD.run()
    emit(MAC_FRAME_OVERHEAD.name, MAC_FRAME_OVERHEAD.report(results))

    for claim, value in MAC_FRAME_OVERHEAD.banded(results):
        assert claim.holds(value), (claim.label, value, claim.band)
