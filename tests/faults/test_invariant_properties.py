"""Property tests for the monitor's incremental worst-gap fold.

Each tick the monitor folds only the arrivals since the previous tick into
a running worst inter-arrival gap, and rescans from the first arrival when
the failover windows change.  Hypothesis drives it over random arrival
streams and window histories -- windows that appear after the gaps they
cover, that open and later close, that overlap -- and checks it after
every tick against the from-scratch definition below.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.faults.invariants import StreamInvariantMonitor


def reference_worst_gap(arrivals, windows):
    """Worst gap between consecutive arrivals that no window overlaps."""
    worst = 0
    for a, b in zip(arrivals, arrivals[1:]):
        exempt = any(
            start < b and (end is None or end > a) for start, end in windows
        )
        if not exempt:
            worst = max(worst, b - a)
    return worst


def bare_monitor():
    return StreamInvariantMonitor(SimpleNamespace(sim=None), session=None)


@st.composite
def histories(draw):
    """Arrival times, tick-sized prefix lengths, and the windows per tick."""
    steps = draw(st.lists(st.integers(0, 300), max_size=60))
    arrivals, t = [], draw(st.integers(0, 50))
    for step in steps:
        t += step
        arrivals.append(t)
    cuts = sorted(
        draw(st.lists(st.integers(0, len(arrivals)), min_size=1, max_size=12))
    )
    ticks = len(cuts)
    horizon = t + 100
    failovers = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, horizon))
        end = draw(st.integers(start + 1, horizon + 1))
        opens = draw(st.integers(0, ticks - 1))
        closes = draw(st.one_of(st.none(), st.integers(opens, ticks - 1)))
        failovers.append((start, end, opens, closes))
    windows = [
        tuple(
            (start, end if closes is not None and closes <= tick else None)
            for start, end, opens, closes in failovers
            if opens <= tick
        )
        for tick in range(ticks)
    ]
    return arrivals, cuts, windows


@given(histories())
def test_incremental_worst_gap_matches_a_full_rescan(history):
    arrivals, cuts, windows = history
    monitor = bare_monitor()
    live = []  # grows in place, like StreamStats.arrival_times
    for cut, tick_windows in zip(cuts, windows):
        live.extend(arrivals[len(live):cut])
        assert monitor._worst_gap(live, tick_windows) == reference_worst_gap(
            live, tick_windows
        )


@given(histories())
def test_unwindowed_worst_gap_is_the_plain_maximum(history):
    arrivals, cuts, _windows = history
    monitor = bare_monitor()
    live = []
    for cut in cuts:
        live.extend(arrivals[len(live):cut])
        gaps = [b - a for a, b in zip(live, live[1:])]
        assert monitor._worst_gap(live, ()) == max(gaps, default=0)


def test_a_replaced_or_shrunken_arrival_list_is_rescanned():
    monitor = bare_monitor()
    assert monitor._worst_gap([0, 500, 510], ()) == 500
    # A different list object, even one with more arrivals.
    assert monitor._worst_gap([0, 10, 20, 30], ()) == 10
    # The same object, shrunk in place.
    live = [0, 10, 400, 410]
    assert monitor._worst_gap(live, ()) == 390
    del live[2:]
    assert monitor._worst_gap(live, ()) == 10
