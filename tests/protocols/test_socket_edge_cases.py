"""Edge-case tests for the socket layer: mbuf exhaustion, blocking recv."""

from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.protocols.stack import NetStack
from repro.sim.units import MS, SEC
from repro.unix.process import UserProcess


def build_pair(seed=14, mbuf_clusters=64):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    a = bed.add_host(HostConfig(name="alpha"))
    b = bed.add_host(HostConfig(name="beta"))
    a.stack = NetStack(a.kernel, a.tr_driver)
    b.stack = NetStack(b.kernel, b.tr_driver)
    return bed, a, b


def test_sendto_waits_for_mbufs_when_pool_exhausted():
    """Section 2: mbuf allocation "can be delayed an arbitrarily long time"."""
    bed, a, b = build_pair()
    b.stack.udp_socket(6000)
    # Exhaust the sender's cluster pool.
    hold = []
    while True:
        try:
            hold.append(a.kernel.mbufs.try_alloc(is_cluster=True))
        except Exception:
            break
    sent = []

    def sender(proc):
        sock = a.stack.udp_socket(5000)
        yield from sock.sendto("beta", 6000, 1200)
        sent.append(bed.sim.now)

    UserProcess(a.kernel, "tx").start(sender)
    bed.run(300 * MS)
    assert sent == []  # parked on the mbuf waiter list
    release_at = bed.sim.now
    for m in hold:
        m.free()
    bed.run(1 * SEC)
    assert sent and sent[0] >= release_at


def test_recvfrom_blocks_until_data():
    bed, a, b = build_pair()
    got = []

    def receiver(proc):
        sock = b.stack.udp_socket(6000)
        dgram = yield from sock.recvfrom()
        got.append((bed.sim.now, dgram.data_bytes))

    def sender(proc):
        sock = a.stack.udp_socket(5000)
        yield from proc.sleep_ns(200 * MS)
        yield from sock.sendto("beta", 6000, 333)

    UserProcess(b.kernel, "rx").start(receiver)
    UserProcess(a.kernel, "tx").start(sender)
    bed.run(1 * SEC)
    assert got and got[0][0] >= 200 * MS
    assert got[0][1] == 333


def test_multiple_receivers_each_get_their_datagram():
    bed, a, b = build_pair()
    got = {}

    def receiver(port):
        def body(proc):
            sock = b.stack.udp_socket(port)
            dgram = yield from sock.recvfrom()
            got[port] = dgram.tag

        return body

    def sender(proc):
        sock = a.stack.udp_socket(5000)
        yield from sock.sendto("beta", 6001, 100, tag="one")
        yield from sock.sendto("beta", 6002, 100, tag="two")

    UserProcess(b.kernel, "rx1").start(receiver(6001))
    UserProcess(b.kernel, "rx2").start(receiver(6002))
    UserProcess(a.kernel, "tx").start(sender)
    bed.run(1 * SEC)
    assert got == {6001: "one", 6002: "two"}


def test_datagram_to_unbound_port_dropped_and_counted():
    bed, a, b = build_pair()

    def sender(proc):
        sock = a.stack.udp_socket(5000)
        yield from sock.sendto("beta", 7777, 100)

    UserProcess(a.kernel, "tx").start(sender)
    bed.run(1 * SEC)
    assert b.stack.udp.stats_no_socket == 1
    assert b.kernel.mbufs.bytes_in_use() == 0  # the chain was freed


def test_no_mbuf_leaks_across_many_datagrams():
    bed, a, b = build_pair()
    count = 40

    def receiver(proc):
        sock = b.stack.udp_socket(6000)
        for _ in range(count):
            yield from sock.recvfrom()

    def sender(proc):
        sock = a.stack.udp_socket(5000)
        for i in range(count):
            yield from sock.sendto("beta", 6000, 700)

    UserProcess(b.kernel, "rx").start(receiver)
    UserProcess(a.kernel, "tx").start(sender)
    bed.run(5 * SEC)
    assert a.kernel.mbufs.bytes_in_use() == 0
    assert b.kernel.mbufs.bytes_in_use() == 0
