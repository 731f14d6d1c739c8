"""FIG-5-4: Test Case B histogram 7 -- transmitter-to-receiver, loaded ring.

Paper: a peak with a loaded-ring shoulder, and two exceptional points at
120-130 ms explained as station insertions into the Token Ring (the Active
Monitor purges the ring ~10 times back to back).

A 6-minute run with the insertion rate raised in proportion
(``claims.run_test_case_b``) keeps the *per-insertion* signature.  The
paper's numbers and asserted bands: ``repro.experiments.claims.FIG_5_4``.
"""

from repro.experiments.claims import FIG_5_4
from repro.experiments.reporting import emit
from repro.sim.units import MS


def test_fig_5_4_test_case_b_with_insertions():
    result = FIG_5_4.run()
    h7 = result.histograms[7]
    inserter = result.testbed.inserter
    emit(FIG_5_4.name, FIG_5_4.report(result))

    assert h7.count > 20_000
    for claim, value in FIG_5_4.banded(result):
        assert claim.holds(value), (claim.label, value, claim.band)
    # Ring insertions produce ~100ms outliers: at least one sample in the
    # 80-150ms band (wider than the report's 100-140ms row), and the count
    # is on the order of the insertion count.
    assert inserter.stats_insertions >= 1
    outliers = h7.count_between(80 * MS, 150 * MS)
    assert outliers >= 1
    assert outliers <= 4 * inserter.stats_insertions
    # Each insertion may lose the packet in flight -- and nothing else does.
    lost = result.tracker.lost_packets
    assert lost <= 2 * inserter.stats_insertions
