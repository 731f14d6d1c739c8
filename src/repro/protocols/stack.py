"""The per-host network stack and socket API.

Glues ARP/IP/UDP/TCP to the Token Ring driver's LLC input split point and
offers the user-process-facing socket surface the stock baseline relay and
the control-machine keepalive traffic use.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.hardware import calibration
from repro.hardware.cpu import Exec, Wait
from repro.hardware.memory import Region
from repro.protocols.arp import ArpLayer
from repro.protocols.headers import Datagram
from repro.protocols.ip import IpLayer
from repro.protocols.tcp import TcpLayer
from repro.protocols.udp import UdpLayer
from repro.ring.frames import Frame
from repro.sim.engine import Event
from repro.unix.copy import cpu_copy
from repro.unix.kernel import Kernel
from repro.unix.mbuf import MbufChain, MbufExhausted

#: Default socket receive buffer (4.3BSD default).
SO_RCVBUF_BYTES = 4096


class NetStack:
    """One host's protocol stack, installed onto its Token Ring driver."""

    def __init__(self, kernel: Kernel, tr_driver) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.cpu = kernel.cpu
        self.tr_driver = tr_driver
        self.address = tr_driver.adapter.address
        self.arp = ArpLayer(self)
        self.ip = IpLayer(self)
        self.udp = UdpLayer(self)
        self.tcp = TcpLayer(self)
        self._udp_sockets: dict[int, "Socket"] = {}
        tr_driver.llc_input = self._llc_input

    # ------------------------------------------------------------------
    # driver upcall (runs at softnet priority)
    # ------------------------------------------------------------------
    def _llc_input(self, frame: Frame, chain: MbufChain) -> Generator:
        if frame.protocol == "arp":
            chain.free()
            yield from self.arp.input(frame)
        elif frame.protocol == "ip":
            yield from self.ip.input(frame, chain)
        else:
            chain.free()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def wait_in_process(self, ev: Event) -> Generator:
        """``yield from`` helper to block the calling process on ``ev``."""
        value = yield Wait(ev)
        return value

    def find_socket(self, proto: str, port: int) -> Optional["Socket"]:
        if proto == "udp":
            return self._udp_sockets.get(port)
        return None

    # ------------------------------------------------------------------
    # socket API
    # ------------------------------------------------------------------
    def udp_socket(self, port: int, rcvbuf: int = SO_RCVBUF_BYTES) -> "Socket":
        """Create and bind a UDP socket."""
        if port in self._udp_sockets:
            raise ValueError(f"UDP port {port} in use on {self.address}")
        sock = Socket(self, port, rcvbuf=rcvbuf)
        self._udp_sockets[port] = sock
        return sock

    def tcp_connect(self, local_port: int, remote_host: str, remote_port: int) -> Generator:
        """``yield from`` in a process: returns an established TcpConnection."""
        conn = yield from self.tcp.connect(local_port, remote_host, remote_port)
        return conn

    def tcp_listen(self, port: int) -> None:
        self.tcp.listen(port)


class Socket:
    """A bound UDP socket."""

    def __init__(self, stack: NetStack, port: int, rcvbuf: int) -> None:
        self.stack = stack
        self.port = port
        self.rcvbuf = rcvbuf
        self._queue: deque[tuple[Datagram, MbufChain]] = deque()
        self._queued_bytes = 0
        self._recv_waiters: list[Event] = []
        self.stats_drops_full_buffer = 0
        self.stats_received = 0
        self.stats_sent = 0

    # ------------------------------------------------------------------
    # send path (run inside a user process frame)
    # ------------------------------------------------------------------
    def sendto(
        self, dst_host: str, dst_port: int, nbytes: int, tag: Any = None
    ) -> Generator:
        """``sendto()``: copy out of user space, then down the stack."""
        yield Exec(calibration.SOCKET_SYSCALL_COST)
        dgram = Datagram(
            proto="udp",
            src_host=self.stack.address,
            dst_host=dst_host,
            src_port=self.port,
            dst_port=dst_port,
            data_bytes=nbytes,
            tag=tag,
        )
        from repro.unix.mbuf import MBUF_DATA_BYTES

        while True:
            try:
                chain = self.stack.kernel.mbufs.try_alloc_chain(dgram.info_bytes)
                break
            except MbufExhausted:
                # M_WAIT semantics: park until a buffer of the class we
                # need returns -- "delayed an arbitrarily long time".
                wants_cluster = dgram.info_bytes > MBUF_DATA_BYTES
                ev = self.stack.kernel.mbufs.alloc_wait(is_cluster=wants_cluster)
                m = yield Wait(ev)
                m.free()
        yield Exec(calibration.MBUF_ALLOC_COST * chain.buffer_count)
        yield from cpu_copy(
            self.stack.kernel.ledger, Region.USER, Region.SYSTEM, nbytes
        )
        self.stats_sent += 1
        yield from self.stack.udp.output(dgram, chain)
        return nbytes

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def enqueue_datagram(self, dgram: Datagram, chain: MbufChain) -> None:
        """Protocol upcall (softnet context)."""
        if self._queued_bytes + dgram.data_bytes > self.rcvbuf:
            # Socket buffer full: the datagram is silently dropped, exactly
            # how the stock path loses media data when the reader is slow.
            self.stats_drops_full_buffer += 1
            chain.free()
            return
        self._queue.append((dgram, chain))
        self._queued_bytes += dgram.data_bytes
        for ev in self._recv_waiters:
            ev.succeed(None)
        self._recv_waiters.clear()

    def recvfrom(self) -> Generator:
        """``recvfrom()``: block for a datagram, copy it to user space."""
        yield Exec(calibration.SOCKET_SYSCALL_COST)
        while not self._queue:
            ev = self.stack.sim.event(name=f"udp-recv:{self.port}")
            self._recv_waiters.append(ev)
            yield Wait(ev)
        dgram, chain = self._queue.popleft()
        self._queued_bytes -= dgram.data_bytes
        yield from cpu_copy(
            self.stack.kernel.ledger,
            Region.SYSTEM,
            Region.USER,
            dgram.data_bytes,
        )
        chain.free()
        self.stats_received += 1
        return dgram
