"""Tests for time units and deterministic random streams."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams
from repro.sim.units import (
    DAY,
    HOUR,
    MINUTE,
    MS,
    SEC,
    US,
    format_time,
    from_ms,
    from_sec,
    from_us,
    to_ms,
    to_sec,
    to_us,
)


def test_unit_ratios():
    assert US == 1_000
    assert MS == 1_000 * US
    assert SEC == 1_000 * MS
    assert MINUTE == 60 * SEC
    assert HOUR == 60 * MINUTE
    assert DAY == 24 * HOUR


def test_conversions_round_trip_exact_values():
    assert from_us(12.5) == 12_500
    assert from_ms(2.6) == 2_600_000
    assert from_sec(1.5) == 1_500_000_000
    assert to_us(2_600_000) == 2600.0
    assert to_ms(12_000_000) == 12.0
    assert to_sec(3 * SEC) == 3.0


@given(st.integers(min_value=0, max_value=10**15))
def test_format_time_always_has_unit_suffix(t):
    text = format_time(t)
    assert text.endswith(("ns", "us", "ms", "s"))


def test_format_time_examples():
    assert format_time(500) == "500ns"
    assert format_time(2_600_000) == "2600.0us"
    assert format_time(12_000_000) == "12.000ms"
    assert format_time(117 * 60 * SEC) == "7020.000s"


def test_streams_are_deterministic():
    a = RandomStreams(42).get("traffic")
    b = RandomStreams(42).get("traffic")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_are_independent_of_creation_order():
    one = RandomStreams(7)
    two = RandomStreams(7)
    one.get("x")  # creating x first must not perturb y
    ys_one = [one.get("y").random() for _ in range(3)]
    ys_two = [two.get("y").random() for _ in range(3)]
    assert ys_one == ys_two


def test_different_names_give_different_streams():
    streams = RandomStreams(0)
    assert streams.get("a").random() != streams.get("b").random()


def test_get_returns_same_stream_object():
    streams = RandomStreams(1)
    assert streams.get("s") is streams.get("s")


def test_fork_produces_independent_family():
    parent = RandomStreams(5)
    child = parent.fork("machine-0")
    assert child.get("x").random() != parent.get("x").random()
    # forks are themselves deterministic
    again = RandomStreams(5).fork("machine-0")
    assert again.get("x").random() == RandomStreams(5).fork("machine-0").get("x").random()


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_any_seed_name_pair_is_stable(seed, name):
    assert RandomStreams(seed).get(name).random() == RandomStreams(seed).get(name).random()
