"""Tests for token-ring access mechanics: capture, priority, purge."""

import pytest

from repro.hardware import calibration
from repro.ring.frames import Frame, mac_frame
from repro.ring.network import TX_LOST_IN_PURGE, TX_OK, TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, US


def build_ring(n_attached=3, total=70):
    sim = Simulator()
    ring = TokenRing(sim, total_stations=total)
    stations = []
    for i in range(n_attached):
        received = []
        station = RingStation(ring, f"host-{i}", receive=received.append)
        station.received = received  # test convenience
        stations.append(station)
    return sim, ring, stations


def test_single_frame_delivered_to_destination_only():
    sim, ring, (a, b, c) = build_ring()
    frame = Frame(src="host-0", dst="host-1", info_bytes=100)
    a.transmit(frame)
    sim.run(until=10 * MS)
    assert b.received == [frame]
    assert c.received == []


def test_delivery_time_includes_serialization_and_hops():
    sim, ring, (a, b, c) = build_ring()
    frame = Frame(src="host-0", dst="host-1", info_bytes=2000)
    t0 = sim.now
    arrivals = []
    b.receive = lambda f: arrivals.append(sim.now)
    a.transmit(frame)
    sim.run(until=20 * MS)
    assert len(arrivals) == 1
    # Lower bound: token time + full serialization (4042us for 2000 bytes).
    assert arrivals[0] >= t0 + frame.wire_time_ns
    # Upper bound: plus a full ring circulation and the token pass.
    assert arrivals[0] <= t0 + frame.wire_time_ns + ring.ring_latency_ns + 10 * US


def test_tx_complete_fires_after_frame_circulates():
    sim, ring, (a, b, c) = build_ring()
    frame = Frame(src="host-0", dst="host-1", info_bytes=500)
    done = []
    a.transmit(frame, on_complete=lambda f, s: done.append((sim.now, s)))
    sim.run(until=20 * MS)
    assert len(done) == 1
    t, status = done[0]
    assert status == TX_OK
    assert t >= frame.wire_time_ns + ring.ring_latency_ns


def test_one_frame_per_token_fifo_for_equal_priority():
    sim, ring, (a, b, c) = build_ring()
    order = []
    b.receive = lambda f: order.append(f.payload)
    for i in range(3):
        a.transmit(Frame(src="host-0", dst="host-1", info_bytes=1000, payload=i))
    sim.run(until=100 * MS)
    assert order == [0, 1, 2]


def test_high_priority_frame_overtakes_waiting_low_priority():
    sim, ring, (a, b, c) = build_ring()
    order = []
    c.receive = lambda f: order.append(f.payload)
    # Station a fills the ring with low-priority traffic to c.
    for i in range(3):
        a.transmit(Frame(src="host-0", dst="host-2", info_bytes=1800, payload=f"low{i}"))
    # While the first low frame is on the wire, a CTMSP-priority frame queues.
    def send_high():
        b.transmit(
            Frame(src="host-1", dst="host-2", info_bytes=1800, priority=4, payload="high")
        )

    sim.schedule(1 * MS, send_high)
    sim.run(until=100 * MS)
    assert order[0] == "low0"          # already on the wire
    assert order[1] == "high"          # reservation wins the next token
    assert order[2:] == ["low1", "low2"]


def test_token_priority_decays_after_high_priority_drains():
    sim, ring, (a, b, c) = build_ring()
    got = []
    b.receive = lambda f: got.append(f.payload)
    a.transmit(Frame(src="host-0", dst="host-1", info_bytes=100, priority=4, payload="hi"))
    sim.run(until=20 * MS)
    # After the high-priority frame drains, plain traffic must still flow.
    a.transmit(Frame(src="host-0", dst="host-1", info_bytes=100, priority=0, payload="lo"))
    sim.run(until=40 * MS)
    assert got == ["hi", "lo"]


def test_broadcast_reaches_all_other_stations():
    sim, ring, (a, b, c) = build_ring()
    frame = Frame(src="host-0", dst="*", info_bytes=50, protocol="arp")
    a.transmit(frame)
    sim.run(until=10 * MS)
    assert b.received == [frame]
    assert c.received == [frame]
    assert a.received == []


def test_mac_frames_not_passed_to_host_by_default():
    sim, ring, (a, b, c) = build_ring()
    a.transmit(mac_frame("host-0"))
    sim.run(until=10 * MS)
    assert b.received == []
    assert b.stats_mac_frames_seen == 1


def test_purge_loses_in_flight_frame_and_notifies_with_hidden_status():
    sim, ring, (a, b, c) = build_ring()
    frame = Frame(src="host-0", dst="host-1", info_bytes=2000)
    done = []
    a.transmit(frame, on_complete=lambda f, s: done.append(s))
    # Purge while the frame is on the wire (serialization takes ~4ms).
    sim.schedule(1 * MS, ring.purge)
    sim.run(until=100 * MS)
    assert b.received == []
    assert done == [TX_LOST_IN_PURGE]
    assert ring.stats_frames_lost_to_purge == 1


def test_ring_unusable_during_purge_then_recovers():
    sim, ring, (a, b, c) = build_ring()
    ring.purge(duration=10 * MS)
    frame = Frame(src="host-0", dst="host-1", info_bytes=100)
    arrivals = []
    b.receive = lambda f: arrivals.append(sim.now)
    a.transmit(frame)
    sim.run(until=100 * MS)
    assert len(arrivals) == 1
    assert arrivals[0] >= 10 * MS


def test_back_to_back_purges_extend_outage():
    sim, ring, (a, b, c) = build_ring()
    for i in range(10):
        sim.schedule(i * 10 * MS, ring.purge)
    arrivals = []
    b.receive = lambda f: arrivals.append(sim.now)
    a.transmit(Frame(src="host-0", dst="host-1", info_bytes=100))
    sim.run(until=SEC)
    assert arrivals and arrivals[0] >= 100 * MS
    assert ring.stats_purges == 10


def test_frame_queued_during_outage_waits():
    sim, ring, (a, b, c) = build_ring()
    ring.purge(duration=20 * MS)
    sent_at = 5 * MS
    arrivals = []
    b.receive = lambda f: arrivals.append(sim.now)
    sim.schedule(sent_at, a.transmit, Frame(src="host-0", dst="host-1", info_bytes=100))
    sim.run(until=100 * MS)
    assert arrivals[0] >= 20 * MS


def test_utilization_accounting():
    sim, ring, (a, b, c) = build_ring()
    # 2000-byte frame occupies the wire 4042us.
    a.transmit(Frame(src="host-0", dst="host-1", info_bytes=2000, protocol="ctmsp"))
    sim.run(until=100 * MS)
    assert ring.utilization(100 * MS) == pytest.approx(0.04042, rel=0.01)
    assert ring.stats_by_protocol["ctmsp"]["frames"] == 1
    assert ring.stats_by_protocol["ctmsp"]["bytes"] == 2021


def test_wire_monitors_see_every_frame():
    sim, ring, (a, b, c) = build_ring()
    seen = []
    ring.monitors.append(lambda f, t, status: seen.append((f.protocol, status)))
    a.transmit(Frame(src="host-0", dst="host-1", info_bytes=10, protocol="ip"))
    sim.run(until=10 * MS)
    assert seen == [("ip", "wire")]


def test_duplicate_addresses_rejected():
    sim = Simulator()
    ring = TokenRing(sim)
    RingStation(ring, "dup")
    with pytest.raises(ValueError):
        RingStation(ring, "dup")


def test_ring_needs_two_stations():
    with pytest.raises(ValueError):
        TokenRing(Simulator(), total_stations=1)


def test_stats_token_wait_accumulates():
    sim, ring, (a, b, c) = build_ring()
    for i in range(2):
        a.transmit(Frame(src="host-0", dst="host-1", info_bytes=2000, protocol="ctmsp"))
    sim.run(until=100 * MS)
    # Second frame had to wait for the first's full service time.
    assert ring.stats_token_wait_ns["ctmsp"] > 4 * MS


# -- stats_mac_frames_seen: deliveries due by sim.now, minus purged ones ------


def mac_broadcast_on_the_wire():
    """A MAC broadcast from ``a`` to three kinds of station, mid-serialization.

    ``b`` has a host receive hook but, like real adapters, takes no MAC
    frames; ``c`` has no receive hook (a lightweight sender); ``d`` is a
    hypothetical promiscuous station that does take them.  Returns the
    stations, the frames ``d`` received and each station's delivery time.
    """
    sim, ring, (a, b) = build_ring(n_attached=2)
    c = RingStation(ring, "sender")
    got = []
    d = RingStation(ring, "listener", receive=got.append, accept_mac_frames=True)
    wire_start = []
    ring.monitors.append(lambda f, t, status: wire_start.append(t))
    frame = mac_frame("host-0")
    a.transmit(frame)
    while not wire_start:
        sim.run(until=sim.now + US)
    due = {
        s.address: wire_start[0] + frame.wire_time_ns
        + round((s.position - a.position) % ring.total_stations * ring.hop_ns)
        for s in (b, c, d)
    }
    assert sim.now < min(due.values())
    return sim, ring, (a, b, c, d), got, due


def seen(*stations):
    return [s.stats_mac_frames_seen for s in stations]


def test_mac_frames_seen_counts_only_deliveries_due_by_run_until():
    sim, ring, (a, b, c, d), got, due = mac_broadcast_on_the_wire()
    assert due["host-1"] < due["sender"] < due["listener"]
    sim.run(until=due["host-1"])  # run(until) dispatches entries at until
    assert seen(a, b, c, d) == [0, 1, 0, 0]
    sim.run(until=due["sender"] - 1)
    assert seen(a, b, c, d) == [0, 1, 0, 0]
    sim.run(until=due["sender"])
    assert seen(a, b, c, d) == [0, 1, 1, 0]
    assert got == []
    sim.run(until=due["listener"])
    assert seen(a, b, c, d) == [0, 1, 1, 1]
    assert len(got) == 1
    sim.run(until=10 * MS)
    assert seen(a, b, c, d) == [0, 1, 1, 1]


def test_purge_mid_mac_broadcast_leaves_downstream_stations_uncounted():
    sim, ring, (a, b, c, d), got, due = mac_broadcast_on_the_wire()
    sim.run(until=due["host-1"])
    ring.purge()  # b's delivery fell due at this very instant: it stands
    sim.run(until=SEC)
    assert seen(a, b, c, d) == [0, 1, 0, 0]
    assert got == []
    assert ring.stats_frames_lost_to_purge == 1
    # The next broadcast is counted everywhere once it has circulated.
    a.transmit(mac_frame("host-0"))
    sim.run(until=2 * SEC)
    assert seen(a, b, c, d) == [0, 2, 1, 1]
    assert len(got) == 1


def test_mac_broadcast_nobody_accepts_costs_one_capture_and_one_release():
    sim = Simulator(record_trace=True)
    ring = TokenRing(sim)
    a = RingStation(ring, "host-0", receive=lambda f: None)
    others = [RingStation(ring, "host-1", receive=lambda f: None)]
    others += [RingStation(ring, f"sender-{i}") for i in range(3)]
    a.transmit(mac_frame("host-0"))
    sim.run(until=10 * MS)
    assert [name for _t, name in sim.trace] == [
        "TokenRing._capture", "TokenRing._release"
    ]
    assert sim.stats_events == 2
    assert seen(a, *others) == [0, 1, 1, 1, 1]
