"""Unit-level tests for the baseline experiment plumbing."""

import pytest

from repro.experiments.baseline import BaselineResult, run_stock_relay
from repro.sim.units import SEC


def make_result(**kw):
    defaults = dict(
        rate_bytes_per_sec=150_000,
        bytes_per_period=1800,
        duration_ns=10 * SEC,
        periods_produced=830,
        packets_sent=800,
        packets_delivered=790,
    )
    defaults.update(kw)
    return BaselineResult(**defaults)


def test_delivered_fraction():
    r = make_result()
    assert r.delivered_fraction == pytest.approx(790 / 830)
    assert make_result(periods_produced=0).delivered_fraction == 0.0


def test_glitch_accounting():
    r = make_result(device_overruns=30, socket_drops=10)
    assert r.glitches == 40
    assert r.glitch_rate_per_sec() == pytest.approx(4.0)


def test_works_criterion():
    clean = make_result(packets_delivered=830)
    assert clean.works()
    lossy = make_result(device_overruns=50)
    assert not lossy.works()


def test_achieved_rate():
    r = make_result()
    assert r.achieved_bytes_per_sec() == pytest.approx(790 * 1800 / 10)


def test_stock_relay_without_competing_load_does_better():
    loaded = run_stock_relay(
        150_000, duration_ns=8 * SEC, seed=3, competing_load=True
    )
    idle = run_stock_relay(
        150_000, duration_ns=8 * SEC, seed=3, competing_load=False
    )
    # The scheduler quantum against a hog is a big part of the failure.
    assert idle.glitches <= loaded.glitches
    assert idle.delivered_fraction >= loaded.delivered_fraction


def test_stock_relay_scales_packet_size_with_rate():
    r = run_stock_relay(16_000, duration_ns=2 * SEC, seed=3)
    assert r.bytes_per_period == 192  # 16 KB/s over 12 ms periods


def test_sink_write_times_are_recorded():
    r = run_stock_relay(16_000, duration_ns=3 * SEC, seed=3)
    assert len(r.sink_write_times) == r.packets_delivered
    assert r.sink_write_times == sorted(r.sink_write_times)
