"""Tests for playout buffering and the Section 2 copy-count model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffering import PlayoutBuffer, required_buffer_bytes
from repro.core.direct import TransferPath, paper_claims, predicted_copies
from repro.sim.units import MS


# ---------------------------------------------------------------------------
# buffer sizing (Section 6)
# ---------------------------------------------------------------------------

def test_paper_buffer_conclusion_under_25kb():
    """150 KB/s across the 130 ms worst case needs < 25 KB of buffer."""
    need = required_buffer_bytes(150_000, 130 * MS)
    assert need < 25_000


def test_40ms_worst_case_needs_much_less():
    need = required_buffer_bytes(150_000, 40 * MS)
    assert need <= 10_000


def test_sizing_validation():
    with pytest.raises(ValueError):
        required_buffer_bytes(0, 10 * MS)
    with pytest.raises(ValueError):
        required_buffer_bytes(100, -1)


def test_playout_steady_stream_never_glitches():
    buf = PlayoutBuffer(
        capacity_bytes=25_000,
        rate_bytes_per_sec=2000 / 0.012,
        prefill_bytes=6000,
    )
    arrivals = [i * 12 * MS for i in range(200)]
    buf.run(arrivals)
    buf.finish(arrivals[-1] + 12 * MS)
    assert buf.glitches == 0
    assert buf.overflow_drops == 0


def test_playout_130ms_stall_survives_with_paper_buffer():
    rate = 2000 / 0.012
    capacity = required_buffer_bytes(rate, 130 * MS)
    buf = PlayoutBuffer(
        capacity_bytes=capacity, rate_bytes_per_sec=rate, prefill_bytes=capacity
    )
    arrivals = [i * 12 * MS for i in range(50)]
    stall_start = arrivals[-1]
    arrivals += [stall_start + 130 * MS + i * 12 * MS for i in range(50)]
    buf.run(arrivals)
    buf.finish(arrivals[-1])
    assert buf.glitches == 0


def test_playout_underrun_detected_without_enough_buffer():
    rate = 2000 / 0.012
    buf = PlayoutBuffer(
        capacity_bytes=4000, rate_bytes_per_sec=rate, prefill_bytes=2000
    )
    arrivals = [0, 12 * MS, 24 * MS, 24 * MS + 130 * MS]
    buf.run(arrivals)
    assert buf.glitches >= 1


def test_playout_overflow_counted():
    buf = PlayoutBuffer(capacity_bytes=2000, rate_bytes_per_sec=10.0)
    buf.run([0, 1, 2])
    assert buf.overflow_drops == 2


def test_playout_rejects_time_travel():
    buf = PlayoutBuffer(capacity_bytes=10_000, rate_bytes_per_sec=100.0)
    buf.offer(10 * MS)
    with pytest.raises(ValueError):
        buf.offer(5 * MS)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=200))
def test_required_buffer_monotone_in_delay(rate_kb, delay_ms):
    rate = rate_kb * 1000
    small = required_buffer_bytes(rate, delay_ms * MS)
    large = required_buffer_bytes(rate, (delay_ms + 50) * MS)
    assert large >= small
    assert small >= 2000  # always at least one packet of slack


# ---------------------------------------------------------------------------
# copy-count model (Section 2)
# ---------------------------------------------------------------------------

def test_paper_headline_numbers():
    claims = paper_claims()
    assert claims["user_process_max_total"] == 6  # "as many as six"
    assert claims["user_process_min_total"] == 4  # "as few as four"
    assert claims["user_process_cpu"] == 4  # "always four copies by the CPU"
    assert claims["direct_cpu"] == 2  # two copies eliminated
    assert claims["pointer_passing_cpu"] == 0  # all CPU copies eliminated


def test_user_process_always_four_cpu_copies():
    """Section 2: "There will always be four copies made by the CPU"."""
    for src_dma in (True, False):
        for dst_dma in (True, False):
            model = predicted_copies(TransferPath.USER_PROCESS, src_dma, dst_dma)
            assert model.cpu_copies == 4
            # Total = 4 CPU + one DMA per DMA-capable device (4..6).
            assert model.total_copies == 4 + int(src_dma) + int(dst_dma)


def test_single_dma_device_pointer_passing_eliminates_one_copy():
    both = predicted_copies(TransferPath.POINTER_PASSING, True, True)
    one = predicted_copies(TransferPath.POINTER_PASSING, True, False)
    direct = predicted_copies(TransferPath.DIRECT_DRIVER, True, False)
    assert both.cpu_copies == 0
    assert direct.cpu_copies - one.cpu_copies == 1


def test_direct_driver_eliminates_exactly_two_cpu_copies():
    for src_dma in (True, False):
        for dst_dma in (True, False):
            user = predicted_copies(TransferPath.USER_PROCESS, src_dma, dst_dma)
            direct = predicted_copies(TransferPath.DIRECT_DRIVER, src_dma, dst_dma)
            assert user.cpu_copies - direct.cpu_copies == 2
            assert user.dma_copies == direct.dma_copies
