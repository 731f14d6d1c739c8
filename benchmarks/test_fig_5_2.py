"""FIG-5-2: Test Case B histogram 6 -- handler entry to pre-transmit.

Paper: a bimodal curve.  The first peak is copy plus code; the second mode
is CTMSP packets "queued rather than sent immediately" behind the hosts'
own socket traffic, after which "the system plays catch up for tens of
CTMSP packets".  The paper's numbers and asserted bands:
``repro.experiments.claims.FIG_5_2``.
"""

from itertools import groupby

from repro.experiments.claims import FIG_5_2
from repro.experiments.reporting import emit
from repro.sim.units import US


def test_fig_5_2_test_case_b():
    result = FIG_5_2.run()
    h6 = result.histograms[6]
    emit(FIG_5_2.name, FIG_5_2.report(result))

    assert h6.count > 4000
    for claim, value in FIG_5_2.banded(result):
        assert claim.holds(value), (claim.label, value, claim.band)
    # Spread between the modes (paper: 16.5%), over a narrower window than
    # the report's 2800-9300us row.
    mid = h6.fraction_between(3_100 * US, 8_400 * US)
    assert 0.08 <= mid <= 0.45
    # Delayed packets come in runs -- the paper's "catch up" trains.
    delayed = (s > 3_200 * US for s in h6.samples)
    runs = [len(list(run)) for is_delayed, run in groupby(delayed) if is_delayed]
    assert runs and max(runs) >= 5
