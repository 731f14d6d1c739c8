"""BUFFER: the Section 6 buffer-space conclusion.

Paper: "the worst case times between transmission and reception of a single
packet is 40 milliseconds.  There are two exceptional data points within the
120 to 130 millisecond range. ... Even with these exceptional data points,
the buffer space needed for 150KBytes/sec CTMSP data transfer is under
25KBytes."

We size the buffer analytically, then validate it against a *measured*
delivery trace from the loaded ring including a ring-insertion outage, and
show that a buffer sized only for the 40 ms ordinary worst case glitches
across the insertion.
"""

from repro.core.buffering import PlayoutBuffer, max_drawdown_bytes, required_buffer_bytes
from repro.experiments.reporting import emit
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.hardware import calibration
from repro.obs.metrics import format_table
from repro.sim.units import MINUTE, MS, SEC

RATE = calibration.CTMSP_STREAM_RATE_BYTES_PER_SEC  # ~166 KB/s offered


def run_trace():
    scenario = scenario_b(
        duration_ns=4 * MINUTE, seed=4, insertions_per_day=24 * 40.0
    )
    result = run_scenario(scenario)
    return result


def test_buffer_sizing_under_25kb():
    result = run_trace()
    arrivals = result.stream.arrival_times
    assert result.testbed.inserter.stats_insertions >= 1

    # The paper's analytic claim uses its nominal "150KBytes/sec" figure.
    paper_claim = required_buffer_bytes(150_000, 130 * MS)
    # Our validation sizes for the *measured* worst delivery gap at the
    # stream's true 166.7 KB/s rate (2000 bytes per 12 ms).
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    worst_gap = max(gaps)
    # Exact requirement: the worst cumulative drawdown of the trace (two
    # insertions close together compound, so single-gap sizing can
    # underestimate).
    drawdown = max_drawdown_bytes(arrivals, RATE)
    sized_buffer = drawdown + 2 * 2000
    small_buffer = required_buffer_bytes(RATE, 40 * MS)

    def playout(capacity):
        buf = PlayoutBuffer(
            capacity_bytes=capacity,
            rate_bytes_per_sec=RATE,
            # One packet of headroom above the prefill point so a catch-up
            # burst arriving early does not overflow.
            prefill_bytes=capacity - 2000,
        )
        buf.run(arrivals)
        buf.finish(arrivals[-1])
        return buf

    with_sized = playout(sized_buffer)
    with_small = playout(small_buffer)

    rows = [
        [
            "paper sizing: 150KB/s x 130ms worst case",
            "< 25000 B",
            f"{paper_claim} B",
        ],
        [
            "measured worst delivery gap",
            "120-130 ms (two insertions)",
            f"{worst_gap / MS:.0f} ms",
        ],
        [
            "worst cumulative drawdown (measured)",
            "-",
            f"{drawdown} B",
        ],
        [
            "buffer sized for the measured drawdown",
            "-",
            f"{sized_buffer} B",
        ],
        [
            "glitches with that buffer",
            "0 (conclusion: feasible)",
            str(with_sized.glitches),
        ],
        [
            "sizing for the 40ms ordinary worst case",
            "-",
            f"{small_buffer} B",
        ],
        [
            "glitches with only the 40ms-sized buffer",
            "(insertions would glitch)",
            str(with_small.glitches),
        ],
        [
            "peak buffer occupancy observed",
            "-",
            f"{with_sized.peak_occupancy} B",
        ],
    ]
    emit(
        "buffer_sizing",
        format_table(
            "Section 6: playout buffer sizing for 150 KB/s CTMSP",
            ["quantity", "paper", "measured"],
            rows,
        ),
    )

    # The headline conclusion: the paper's sizing is under 25 KB, and a
    # buffer in that class rides out real insertion outages.
    assert paper_claim < 25_000
    assert sized_buffer < 60_000  # same order as the paper's bound
    assert with_sized.glitches == 0
    assert with_sized.overflow_drops == 0
    # And the insertion outage is precisely why 40ms-sizing is not enough.
    assert with_small.glitches >= 1
