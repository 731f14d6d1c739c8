"""BASELINE: the Section 1 motivating result.

Paper: "The initial test was to transport 16KBytes/sec of audio data ...
This worked extremely well within the current UNIX model.  We then tested
the use of 150KBytes/sec to simulate compressed video or Compact Disc
quality audio.  This test of data transport failed completely."

We run the stock Figure 2-1 relay (user process: read device, write
socket; on the receiver: read socket, write device) at both rates, on
machines that also run a competing compute-bound process, and compare with
the CTMS direct path at the failing rate.
"""

from repro.core.session import CTMSSession
from repro.experiments.baseline import rate_comparison_table, run_rate_comparison
from repro.experiments.reporting import emit
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.sim.units import SEC


def test_baseline_16_works_150_fails():
    results = run_rate_comparison(duration_ns=25 * SEC, seed=3)

    emit("baseline_rates", rate_comparison_table(results))

    low, high = results[16_000], results[150_000]
    # "worked extremely well"
    assert low.works()
    assert low.glitches == 0
    # "failed completely": sustained, audible glitching.
    assert not high.works()
    assert high.glitch_rate_per_sec() > 1.0


def test_ctms_sustains_the_rate_the_stock_path_cannot():
    # The same 150KB/s-class stream through the CTMS prototype, on the
    # *loaded* public ring, is glitch-free.
    result = run_scenario(scenario_b(duration_ns=25 * SEC, seed=3))
    tracker = result.tracker
    assert tracker.lost_packets == 0
    assert result.stream.throughput_bytes_per_sec() > 160_000
