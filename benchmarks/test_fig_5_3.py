"""FIG-5-3: Test Case A histogram 7 -- transmitter-to-receiver times.

Paper: minimum 10740 us; 98% of samples within 160 us of the 10894 us mean;
the remaining 2% spread right of the mean, extending to 14600 us.
"""

from repro.experiments.reporting import emit, figure_5_3_report
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.sim.units import MS, SEC, US


def test_fig_5_3_test_case_a():
    result = run_scenario(scenario_a(duration_ns=60 * SEC, seed=1))
    h7 = result.histograms[7]
    emit("fig_5_3", figure_5_3_report(h7))

    # Shape assertions against the paper's claims.
    assert h7.count > 4000
    # Minimum latency ~10740us (within 2%).
    assert abs(h7.min() - 10_740 * US) <= 220 * US
    # Mean ~10894us (within 2%).
    mean = h7.mean()
    assert abs(mean - 10_894 * US) <= 220 * US
    # Tight distribution: ~98% within 160us of the mean.
    frac = h7.fraction_within(round(mean), 160 * US)
    assert frac >= 0.95
    # A small right tail exists but stays bounded (paper: to 14600us).
    assert h7.max() > mean + 300 * US
    assert h7.max() <= 16 * MS
    # No packets lost on the quiet private ring.
    assert result.tracker.lost_packets == 0
    assert result.tracker.reordered == 0
