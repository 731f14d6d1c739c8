"""A simplified TCP.

Faithful to the behaviours Section 3 indicts -- "These protocols can
guarantee the preservation [of sequence] only by creating more network
traffic in the form of acknowledgments and requests for retransmission of
lost packets" -- while staying small:

* three-way handshake (SYN / SYN-ACK / ACK);
* MSS segmentation and a fixed-size send window (4 KB, the 4.3BSD default
  socket buffer);
* an immediate cumulative ACK per received data segment;
* go-back-N timeout retransmission from the first unacknowledged byte.

No congestion control (the 1990 4.3BSD Tahoe machinery would change nothing
on a single token ring where the only loss is a Ring Purge) and no window
scaling.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.hardware import calibration
from repro.hardware.cpu import Exec, Wait
from repro.hardware.memory import Region
from repro.protocols.headers import Datagram, TCP_MSS
from repro.sim.engine import Event, Handle
from repro.sim.units import MS
from repro.unix.copy import cpu_copy
from repro.unix.mbuf import MbufChain, MbufExhausted

#: Fixed send window (bytes in flight), the 4.3BSD default socket buffer.
TCP_WINDOW_BYTES = 4096
#: Retransmission timeout (4.3BSD's floor was 2 ticks of the 500 ms slow
#: timer; we use a flat 500 ms).
TCP_RTO = 500 * MS


class TcpConnection:
    """One established (or establishing) connection endpoint."""

    def __init__(self, stack, local_port: int, remote_host: str, remote_port: int):
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.state = "closed"
        self.snd_nxt = 0
        self.snd_una = 0
        self.rcv_nxt = 0
        self._unacked: deque[tuple[int, int]] = deque()  # (seq, nbytes)
        self._send_waiters: list[Event] = []
        self._recv_buffer = 0  # bytes available to the application
        self._recv_waiters: list[Event] = []
        self._established_ev: Optional[Event] = None
        self._rto_handle: Optional[Handle] = None
        self.stats_segments_out = 0
        self.stats_acks_out = 0
        self.stats_retransmits = 0

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def connect(self) -> Generator:
        """Three-way handshake; blocks the calling process until established."""
        self.state = "syn_sent"
        self._established_ev = self.sim.event(name="tcp-established")
        yield from self._send_segment(0, 0, syn=True)
        yield Wait(self._established_ev)
        return self

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> Generator:
        """Send ``nbytes`` of application data (blocks on window)."""
        remaining = nbytes
        while remaining > 0:
            while self.snd_nxt - self.snd_una >= TCP_WINDOW_BYTES:
                ev = self.sim.event(name="tcp-window")
                self._send_waiters.append(ev)
                yield Wait(ev)
            seg = min(TCP_MSS, remaining, TCP_WINDOW_BYTES - (self.snd_nxt - self.snd_una))
            yield from self._send_data_segment(self.snd_nxt, seg)
            self.snd_nxt += seg
            remaining -= seg
        return nbytes

    def recv(self, nbytes: int) -> Generator:
        """Receive up to ``nbytes`` (blocks until any data is available)."""
        while self._recv_buffer == 0:
            ev = self.sim.event(name="tcp-recv")
            self._recv_waiters.append(ev)
            yield Wait(ev)
        take = min(nbytes, self._recv_buffer)
        self._recv_buffer -= take
        # Socket buffer -> user space.
        yield from cpu_copy(
            self.stack.kernel.ledger, Region.SYSTEM, Region.USER, take
        )
        return take

    # ------------------------------------------------------------------
    # segment transmission
    # ------------------------------------------------------------------
    def _send_data_segment(self, seq: int, nbytes: int) -> Generator:
        self._unacked.append((seq, nbytes))
        self._arm_rto()
        yield from self._send_segment(seq, nbytes)

    def _send_segment(
        self,
        seq: int,
        nbytes: int,
        syn: bool = False,
        synack: bool = False,
        ack_only: bool = False,
    ) -> Generator:
        yield Exec(calibration.TCP_PER_PACKET_COST)
        self.stats_segments_out += 1
        dgram = Datagram(
            proto="tcp",
            src_host=self.stack.address,
            dst_host=self.remote_host,
            src_port=self.local_port,
            dst_port=self.remote_port,
            data_bytes=nbytes,
            seq=seq,
            ack=self.rcv_nxt,
            tag=("syn" if syn else "synack" if synack else
                 "ack" if ack_only else "data"),
        )
        try:
            chain = self.stack.kernel.mbufs.try_alloc_chain(dgram.info_bytes)
        except MbufExhausted:
            return  # segment lost to buffer exhaustion; RTO will recover
        yield from self.stack.ip.output(dgram, chain)

    # ------------------------------------------------------------------
    # segment reception (runs at softnet level)
    # ------------------------------------------------------------------
    def input(self, dgram: Datagram, chain: MbufChain) -> Generator:
        yield Exec(calibration.TCP_PER_PACKET_COST)
        kind = dgram.tag
        if kind == "syn":
            self.state = "established"
            self.rcv_nxt = dgram.seq
            yield from self._send_segment(self.snd_nxt, 0, synack=True)
        elif kind == "synack":
            self.state = "established"
            self.rcv_nxt = dgram.seq
            if self._established_ev is not None:
                self._established_ev.succeed(self)
            yield from self._send_segment(self.snd_nxt, 0, ack_only=True)
        elif kind == "data":
            if dgram.seq == self.rcv_nxt:
                self.rcv_nxt += dgram.data_bytes
                self._recv_buffer += dgram.data_bytes
                for ev in self._recv_waiters:
                    ev.succeed(None)
                self._recv_waiters.clear()
            # Immediate cumulative ack, in or out of order -- the "more
            # network traffic in the form of acknowledgments".
            self.stats_acks_out += 1
            yield from self._send_segment(self.snd_nxt, 0, ack_only=True)
        if dgram.ack is not None and dgram.ack > self.snd_una:
            self._process_ack(dgram.ack)
        chain.free()

    def _process_ack(self, ack: int) -> None:
        self.snd_una = ack
        while self._unacked and self._unacked[0][0] + self._unacked[0][1] <= ack:
            self._unacked.popleft()
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None
        if self._unacked:
            self._arm_rto()
        for ev in self._send_waiters:
            ev.succeed(None)
        self._send_waiters.clear()

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self._rto_handle is None:
            self._rto_handle = self.sim.schedule(TCP_RTO, self._rto_fired)

    def _rto_fired(self) -> None:
        self._rto_handle = None
        if not self._unacked:
            return
        self.stats_retransmits += 1
        seq, nbytes = self._unacked[0]

        def retransmit() -> Generator:
            yield from self._send_segment(seq, nbytes)

        self.stack.cpu.raise_irq(
            calibration.SPL_SOFTNET, retransmit, name="tcp-rto"
        )
        self._arm_rto()


class TcpLayer:
    """One host's TCP: demux and listeners."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self.sim = stack.sim
        self._connections: dict[tuple[str, int, int], TcpConnection] = {}
        self._listeners: dict[int, list[TcpConnection]] = {}
        self.stats_in = 0

    def connect(self, local_port: int, remote_host: str, remote_port: int) -> Generator:
        conn = TcpConnection(self.stack, local_port, remote_host, remote_port)
        self._connections[(remote_host, remote_port, local_port)] = conn
        result = yield from conn.connect()
        return result

    def listen(self, port: int) -> None:
        self._listeners.setdefault(port, [])

    def input(self, dgram: Datagram, chain: MbufChain) -> Generator:
        self.stats_in += 1
        key = (dgram.src_host, dgram.src_port, dgram.dst_port)
        conn = self._connections.get(key)
        if conn is None and dgram.tag == "syn" and dgram.dst_port in self._listeners:
            conn = TcpConnection(
                self.stack, dgram.dst_port, dgram.src_host, dgram.src_port
            )
            self._connections[key] = conn
            self._listeners[dgram.dst_port].append(conn)
        if conn is None:
            chain.free()
            return
        yield from conn.input(dgram, chain)

    def accepted(self, port: int) -> list[TcpConnection]:
        """Connections accepted on a listening port so far."""
        return list(self._listeners.get(port, []))
