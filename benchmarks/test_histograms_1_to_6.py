"""HIST-1..6A: the histograms the paper says "showed values which could
easily be explained given the total system and its interactions".

* Histogram 1 (VCA IRQ inter-occurrence): a 12 ms comb, stable to ~0.5 us
  at the source, widened only by the PC/AT tool's ~120 us service spread.
* Histogram 2/3 (handler entry, pre-transmit inter-occurrence): 12 ms mean
  with software-path jitter.
* Histogram 4 (rx classification inter-occurrence): 12 ms mean, wider.
* Histogram 5 (IRQ to handler entry): the paper's logic-analyzer bound --
  at most ~440 us of variation even under load.
* Histogram 6, Test Case A: unimodal at ~2.5 ms (copy + code), since the
  private ring has no competing local traffic.
"""

from repro.experiments.reporting import emit, histogram_summary_table
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.hardware import calibration
from repro.sim.units import MS, SEC, US


def test_histograms_test_case_a():
    result = run_scenario(scenario_a(duration_ns=40 * SEC, seed=3))
    h = result.histograms
    emit("histograms_case_a", histogram_summary_table(h, "Test Case A"))

    # h1: the VCA interrupt source is rock stable; all measured spread is
    # the PC/AT tool's own service-delay error.
    assert abs(h[1].mean() - 12 * MS) < 20 * US
    assert h[1].max() - h[1].min() <= 2 * (
        calibration.PCAT_EXPECTED_SPREAD + calibration.VCA_INTERRUPT_JITTER
    ) + 10 * US
    # h2/h3/h4 all track the 12ms source on average.
    for i in (2, 3, 4):
        assert abs(h[i].mean() - 12 * MS) < 30 * US, i
    # h5: IRQ-to-handler-entry variation within the paper's 440us bound
    # (plus the tool's 120us spread on both endpoints).
    assert h[5].max() <= calibration.IRQ_ENTRY_OVERHEAD + 440 * US + 250 * US
    # h6 on the quiet ring is unimodal and tight around copy+code.
    assert len(h[6].modes(min_separation=2 * MS)) == 1
    assert abs(h[6].primary_mode() - 2_500 * US) <= 400 * US


def test_histograms_test_case_b():
    result = run_scenario(scenario_b(duration_ns=40 * SEC, seed=3))
    h = result.histograms
    emit("histograms_case_b", histogram_summary_table(h, "Test Case B"))

    # The interrupt source does not care about system load.
    assert abs(h[1].mean() - 12 * MS) < 20 * US
    # Handler entry jitter grows under load but stays within the bound.
    assert h[5].max() <= calibration.IRQ_ENTRY_OVERHEAD + 440 * US + 250 * US
    assert h[5].max() >= h[5].min()
    # The loaded case delays transmissions: h3's spread far exceeds h2's.
    assert h[3].std() > h[2].std()
    # Deliveries still average one packet per 12ms (no sustained loss).
    assert abs(h[4].mean() - 12 * MS) < 50 * US
