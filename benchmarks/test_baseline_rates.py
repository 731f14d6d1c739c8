"""BASELINE: the Section 1 motivating result.

Paper: "The initial test was to transport 16KBytes/sec of audio data ...
This worked extremely well within the current UNIX model.  We then tested
the use of 150KBytes/sec to simulate compressed video or Compact Disc
quality audio.  This test of data transport failed completely."

We run the stock Figure 2-1 relay at both rates next to a competing
compute-bound process, and the CTMS direct path at the failing rate.  The
paper's claims: ``repro.experiments.claims.BASELINE_RATES``.
"""

from repro.experiments.claims import BASELINE_RATES
from repro.experiments.reporting import emit
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.sim.units import SEC


def test_baseline_16_works_150_fails():
    results = BASELINE_RATES.run()
    emit(BASELINE_RATES.name, BASELINE_RATES.report(results))

    for claim, value in BASELINE_RATES.banded(results):
        assert claim.holds(value), (claim.label, value, claim.band)


def test_ctms_sustains_the_rate_the_stock_path_cannot():
    # The same 150KB/s-class stream through the CTMS prototype, on the
    # *loaded* public ring, is glitch-free.
    result = run_scenario(scenario_b(duration_ns=25 * SEC, seed=3))
    tracker = result.tracker
    assert tracker.lost_packets == 0
    assert result.stream.throughput_bytes_per_sec() > 160_000
