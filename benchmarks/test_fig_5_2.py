"""FIG-5-2: Test Case B histogram 6 -- handler entry to pre-transmit.

Paper: a bimodal curve.  68% of samples within 500 us of 2600 us; 15% within
500 us of 9400 us; 16.5% between 2800 and 9300 us; ~2% in tails extending to
14000 us.  The first peak is 2000 us of copy (1 us/byte into IO Channel
Memory) plus ~600 us of code; the second mode is CTMSP packets "queued
rather than sent immediately" behind the hosts' own socket traffic, after
which "the system plays catch up for tens of CTMSP packets".
"""

from repro.experiments.reporting import emit, figure_5_2_report
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.sim.units import MS, SEC, US


def test_fig_5_2_test_case_b():
    result = run_scenario(scenario_b(duration_ns=60 * SEC, seed=1))
    h6 = result.histograms[6]
    emit("fig_5_2", figure_5_2_report(h6))

    assert h6.count > 4000
    # Primary mode at ~2600us: 2000us copy + ~600us code.
    assert abs(h6.primary_mode() - 2_600 * US) <= 500 * US
    main = h6.fraction_within(2_600 * US, 500 * US)
    # Paper: 68%.  Shape band: the no-delay mode dominates but a large
    # minority of packets are delayed.
    assert 0.45 <= main <= 0.85
    # A secondary concentration of full-service waits around 9ms (paper's
    # 9400us +/- 500us band, widened for the model's resonance position).
    high = h6.fraction_between(8_400 * US, 10_400 * US)
    assert high >= 0.05
    # Spread between the modes (paper: 16.5%).
    mid = h6.fraction_between(3_100 * US, 8_400 * US)
    assert 0.08 <= mid <= 0.45
    # Tails stay small (paper: ~2% overall, extending to 14000us).
    assert 1 - h6.fraction_between(0, 14_000 * US) <= 0.03
    # Delayed packets come in runs -- the paper's "catch up" trains.
    delayed = [s > 3_200 * US for s in h6.samples]
    runs, current = [], 0
    for d in delayed:
        current = current + 1 if d else 0
        if current:
            runs.append(current)
    assert runs and max(runs) >= 5
