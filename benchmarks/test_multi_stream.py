"""MULTI: how many CTMS streams does a 4 Mbit Token Ring carry?

An extension: each CTMSP stream occupies ~168 KB/s of the ring's 500 KB/s
(2021 wire bytes per 12 ms), so the wire fits two streams and chokes on a
third.  The asserted bands: ``repro.experiments.claims.MULTI_STREAM``.
"""

from repro.experiments.claims import MULTI_STREAM
from repro.experiments.reporting import emit


def test_multi_stream_capacity():
    results = MULTI_STREAM.run()
    emit(MULTI_STREAM.name, MULTI_STREAM.report(results))

    for claim, value in MULTI_STREAM.banded(results):
        assert claim.holds(value), (claim.label, value, claim.band)
