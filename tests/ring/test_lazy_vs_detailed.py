"""Cross-validation: the lazy token model against the hop-level reference.

The production ring never simulates idle token rotation; this suite runs
identical workloads through both models and checks that delivery times
agree within the token-access uncertainty (one ring rotation), and that the
priority mechanism makes the same scheduling decisions.
"""

from repro.ring.detailed import DetailedTokenRing
from repro.ring.frames import Frame
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, US

N_STATIONS = 8


def run_lazy(plan):
    sim = Simulator()
    ring = TokenRing(sim, total_stations=N_STATIONS)
    stations = [RingStation(ring, f"s{i}") for i in range(4)]
    deliveries = []
    for s in stations:
        s.receive = (
            lambda f, addr=s.address: deliveries.append((f.payload, sim.now))
        )
    for sender, receiver, nbytes, priority, delay_ms, tag in plan:
        sim.schedule(
            delay_ms * MS,
            stations[sender].transmit,
            Frame(src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
                  priority=priority, payload=tag),
        )
    sim.run(until=5 * SEC)
    return dict((tag, t) for tag, t in deliveries)


def run_detailed(plan):
    sim = Simulator()
    ring = DetailedTokenRing(sim, total_stations=N_STATIONS)
    stations = [ring.attach(f"s{i}") for i in range(4)]
    deliveries = []
    for s in stations:
        s.receive = (
            lambda f, addr=s.address: deliveries.append((f.payload, sim.now))
        )
    ring.start()
    for sender, receiver, nbytes, priority, delay_ms, tag in plan:
        sim.schedule(
            delay_ms * MS,
            stations[sender].transmit,
            Frame(src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
                  priority=priority, payload=tag),
        )
    sim.run(until=5 * SEC)
    return dict((tag, t) for tag, t in deliveries)


#: Agreement tolerance: one full rotation of the 8-station validation ring
#: plus the token time -- the phase information the lazy model abstracts.
TOLERANCE = N_STATIONS * 300 + 2 * 6_000


def compare(plan):
    lazy = run_lazy(plan)
    detailed = run_detailed(plan)
    assert set(lazy) == set(detailed)
    for tag in lazy:
        assert abs(lazy[tag] - detailed[tag]) <= TOLERANCE, (
            tag, lazy[tag], detailed[tag]
        )


def test_single_frame_delivery_time_agrees():
    compare([(0, 1, 2000, 0, 1, "a")])


def test_pipelined_frames_agree():
    compare([(0, 1, 2000, 0, 1, f"p{i}") for i in range(5)])


def test_competing_senders_agree():
    plan = [
        (0, 2, 1500, 0, 1, "x0"),
        (1, 3, 1500, 0, 1, "x1"),
        (0, 2, 800, 0, 1, "x2"),
        (3, 1, 400, 0, 2, "x3"),
    ]
    compare(plan)


def test_priority_frame_wins_in_both_models():
    # Station 0 floods at priority 0; station 1 sends one priority-4 frame
    # mid-flood.  In both models the priority frame must overtake the
    # remaining low-priority queue.
    plan = [(0, 2, 1800, 0, 1, f"low{i}") for i in range(4)]
    plan.append((1, 2, 1800, 4, 3, "high"))

    for runner in (run_lazy, run_detailed):
        times = runner(plan)
        assert times["high"] < times["low2"], runner.__name__
        assert times["high"] < times["low3"], runner.__name__


def test_throughput_matches_under_saturation():
    # Saturate the ring from two senders; both models must sustain the same
    # frame rate (the wire is the bottleneck).
    plan = []
    for i in range(20):
        plan.append((0, 2, 2000, 0, 1, f"a{i}"))
        plan.append((1, 3, 2000, 0, 1, f"b{i}"))
    lazy = run_lazy(plan)
    detailed = run_detailed(plan)
    assert set(lazy) == set(detailed)
    # Completion of the whole batch agrees within a couple of service times.
    lazy_end = max(lazy.values())
    detailed_end = max(detailed.values())
    assert abs(lazy_end - detailed_end) <= 2 * 4_200 * US


def test_detailed_ring_parks_when_idle_and_hops_when_busy():
    """The detailed ring spends hop events only while frames are pending."""
    sim = Simulator()
    ring = DetailedTokenRing(sim, total_stations=N_STATIONS)
    s0 = ring.attach("s0")
    ring.attach("s1")
    ring.start()
    sim.run(until=10 * MS)
    idle_hops = ring.stats_token_hops
    assert idle_hops < 20  # parked almost immediately
    s0.transmit(Frame(src="s0", dst="s1", info_bytes=500))
    sim.run(until=20 * MS)
    assert ring.stats_token_hops > idle_hops  # resumed for the frame
    assert ring.stats_frames_sent == 1
