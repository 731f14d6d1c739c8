"""SWEEP: CTMSP service quality versus background load.

An extension figure: the paper measures two load points (Test Case A's
silent ring, Test Case B's "normal loading").  This sweep fills in the
curve -- transmit-path delay and end-to-end tail latency as the background
load multiplier grows -- showing where the prototype's guarantees start to
bend and that delivery itself stays lossless well past "normal".
"""

from repro.experiments.reporting import emit
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.obs.metrics import format_table
from repro.sim.units import MS, SEC, US

LOADS = (0.0, 0.5, 1.0, 2.0)
DURATION = 20 * SEC


def run_sweep():
    results = {}
    for load in LOADS:
        scenario = scenario_b(duration_ns=DURATION, seed=5)
        scenario = scenario.variant(f"load{load}", background_load=load)
        results[load] = run_scenario(scenario)
    return results


def test_load_sweep():
    results = run_sweep()

    rows = []
    summary = {}
    for load, result in results.items():
        h6, h7 = result.histograms[6], result.histograms[7]
        tracker = result.tracker
        entry = {
            "h6_p95": h6.percentile(95),
            "h7_p95": h7.percentile(95),
            "h7_max": h7.max(),
            "delayed": 1 - h6.fraction_within(2_600 * US, 500 * US),
            "lost": tracker.lost_packets,
            "util": result.testbed.ring.utilization(DURATION),
        }
        summary[load] = entry
        rows.append(
            [
                f"{load:.1f}x",
                f"{entry['util'] * 100:.0f}%",
                f"{entry['delayed'] * 100:.0f}%",
                f"{entry['h6_p95'] / US:.0f}",
                f"{entry['h7_p95'] / US:.0f}",
                f"{entry['h7_max'] / MS:.1f} ms",
                str(entry["lost"]),
            ]
        )
    emit(
        "load_sweep",
        format_table(
            "Extension: CTMSP service quality vs background load "
            "(1.0x is Test Case B's 'normal loading')",
            ["load", "ring util", "delayed pkts", "h6 p95(us)",
             "h7 p95(us)", "h7 max", "lost"],
            rows,
        ),
    )

    # Silent ring: essentially nothing is delayed.
    assert summary[0.0]["delayed"] < 0.05
    # Load monotonically increases the delayed fraction.
    delayed = [summary[l]["delayed"] for l in LOADS]
    assert all(b >= a - 0.02 for a, b in zip(delayed, delayed[1:]))
    assert summary[2.0]["delayed"] > summary[0.5]["delayed"] + 0.1
    # The transmit-path tail grows severalfold across the sweep.
    assert summary[2.0]["h6_p95"] > 2 * summary[0.0]["h6_p95"]
    # But the stream never loses a packet: CTMSP's guarantees hold, the
    # playout buffer just needs to cover a longer tail.
    for load in LOADS:
        assert summary[load]["lost"] == 0, load
