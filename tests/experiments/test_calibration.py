"""Calibration pinning: the DERIVED constants against the PAPER numbers.

These tests are the contract promised in
:mod:`repro.hardware.calibration`: change a derived constant and the
end-to-end budget test that depends on it fails, naming the paper figure
you broke.  Durations are kept short; the quantities checked here are
floors and means that stabilize within seconds of simulated time.
"""

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.hardware import calibration
from repro.sim.units import MS, SEC, US


@pytest.fixture(scope="module")
def case_a():
    return run_scenario(scenario_a(duration_ns=12 * SEC, seed=1))


@pytest.fixture(scope="module")
def case_b():
    return run_scenario(scenario_b(duration_ns=20 * SEC, seed=1))


def test_paper_constants_are_verbatim():
    """The PAPER-tagged constants must never drift from the text."""
    assert calibration.TOKEN_RING_BIT_RATE == 4_000_000
    assert calibration.TOKEN_RING_DEFAULT_STATIONS == 70
    assert calibration.VCA_INTERRUPT_PERIOD == 12 * MS
    assert calibration.CTMSP_PACKET_BYTES == 2000
    assert calibration.CPU_COPY_SYS_TO_IOCM_NS_PER_BYTE == 1000  # 1 us/byte
    assert calibration.RTPC_CLOCK_GRANULARITY == 122 * US
    assert calibration.PCAT_CLOCK_RESOLUTION == 2 * US
    assert calibration.PCAT_LOOP_WORST_CASE == 60 * US
    assert calibration.PCAT_EXPECTED_SPREAD == 120 * US
    assert calibration.RING_INSERTIONS_PER_DAY == 20
    assert calibration.MAC_TRAFFIC_UTILIZATION_LOW == 0.002
    assert calibration.MAC_TRAFFIC_UTILIZATION_HIGH == 0.010


def test_wire_time_of_the_ctmsp_packet():
    """2000 info bytes + 21 framing bytes at 4 Mbit/s = 4042 us."""
    from repro.ring.frames import Frame

    assert Frame(src="a", dst="b", info_bytes=2000).wire_time_ns == 4042 * US


def test_figure_5_3_minimum_budget(case_a):
    """Test A point-3-to-point-4 floor: the paper's 10740 us."""
    h7 = case_a.histograms[7]
    assert abs(h7.min() - 10_740 * US) <= 220 * US


def test_figure_5_3_mean_and_tightness(case_a):
    h7 = case_a.histograms[7]
    mean = h7.mean()
    assert abs(mean - 10_894 * US) <= 220 * US
    assert h7.fraction_within(round(mean), 160 * US) >= 0.95


def test_figure_5_2_first_peak_decomposition(case_b):
    """2000 us copy + ~600 us of code: the first mode sits at ~2600 us."""
    h6 = case_b.histograms[6]
    assert abs(h6.primary_mode() - 2_600 * US) <= 500 * US
    # The floor is the copy alone plus the minimum code path.
    assert 2_300 * US <= h6.min() <= 2_900 * US


def test_vca_handler_entry_bound(case_b):
    """Paper: largest IRQ-to-handler variation 440 us, even under load."""
    h5 = case_b.histograms[5]
    assert h5.max() <= calibration.IRQ_ENTRY_OVERHEAD + 440 * US + 250 * US


def test_interrupt_source_stability(case_a):
    """The VCA's 12 ms period, seen through the PC/AT tool."""
    h1 = case_a.histograms[1]
    assert abs(h1.mean() - 12 * MS) <= 20 * US
    budget = calibration.PCAT_EXPECTED_SPREAD + calibration.VCA_INTERRUPT_JITTER
    assert h1.max() <= 12 * MS + budget + 5 * US
    assert h1.min() >= 12 * MS - budget - 5 * US


def test_stream_rate_constant():
    assert calibration.CTMSP_STREAM_RATE_BYTES_PER_SEC == pytest.approx(
        166_666, abs=10
    )


def test_quiet_ring_is_lossless(case_a):
    assert case_a.tracker.lost_packets == 0
    assert case_a.tracker.duplicates == 0
    assert case_a.tracker.reordered == 0


def test_loaded_ring_still_delivers_everything(case_b):
    """Test B is loaded but not lossy -- only Ring Purges lose packets."""
    assert case_b.tracker.lost_packets == 0
    assert case_b.stream.throughput_bytes_per_sec() > 160_000
