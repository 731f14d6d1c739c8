"""FIG-5-2: Test Case B histogram 6 -- handler entry to pre-transmit.

Paper: a bimodal curve.  68% of samples within 500 us of 2600 us; 15% within
500 us of 9400 us; 16.5% between 2800 and 9300 us; ~2% in tails extending to
14000 us.  The first peak is 2000 us of copy (1 us/byte into IO Channel
Memory) plus ~600 us of code; the second mode is CTMSP packets "queued
rather than sent immediately" behind the hosts' own socket traffic, after
which "the system plays catch up for tens of CTMSP packets".  The paper's
numbers and asserted bands: ``repro.experiments.claims.FIG_5_2``.
"""

from repro.experiments.claims import FIG_5_2
from repro.experiments.reporting import emit
from repro.sim.units import US


def test_fig_5_2_test_case_b():
    result = FIG_5_2.run()
    h6 = result.histograms[6]
    emit("fig_5_2", FIG_5_2.report(result))

    assert h6.count > 4000
    for claim, value in FIG_5_2.banded(h6):
        assert claim.holds(value), (claim.label, value, claim.band)
    # Spread between the modes (paper: 16.5%), over a narrower window than
    # the report's 2800-9300us row.
    mid = h6.fraction_between(3_100 * US, 8_400 * US)
    assert 0.08 <= mid <= 0.45
    # Delayed packets come in runs -- the paper's "catch up" trains.
    delayed = [s > 3_200 * US for s in h6.samples]
    runs, current = [], 0
    for d in delayed:
        current = current + 1 if d else 0
        if current:
            runs.append(current)
    assert runs and max(runs) >= 5
