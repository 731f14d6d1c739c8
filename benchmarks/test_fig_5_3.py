"""FIG-5-3: Test Case A histogram 7 -- transmitter-to-receiver times:
a tight peak with a short right tail.  The paper's numbers and asserted
bands: ``repro.experiments.claims.FIG_5_3``.
"""

from repro.experiments.claims import FIG_5_3
from repro.experiments.reporting import emit
from repro.sim.units import US


def test_fig_5_3_test_case_a():
    result = FIG_5_3.run()
    h7 = result.histograms[7]
    emit(FIG_5_3.name, FIG_5_3.report(result))

    assert h7.count > 4000
    for claim, value in FIG_5_3.banded(result):
        assert claim.holds(value), (claim.label, value, claim.band)
    # A right tail exists.
    assert h7.max() > h7.mean() + 300 * US
    # No packets lost on the quiet private ring.
    assert result.tracker.lost_packets == 0
    assert result.tracker.reordered == 0
