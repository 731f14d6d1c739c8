"""Background traffic: the loaded public ring of Test Case B.

Three mechanisms, mirroring the paper's account:

* **file-transfer traffic** between third-party stations (a file server and
  a compiling client): 1522-byte frames that occupy the wire and delay the
  token, but never touch the measured hosts' CPUs;
* **keepalive exchanges** between the central control machine and each
  measured host over UDP sockets ("The communications link between the
  control machine and each of the other machines in the test is via UNIX
  sockets"): 60-300-byte datagrams the measured host receives, processes,
  and *answers* -- the answer is a local transmission that can hold the
  fixed DMA buffer when a CTMSP packet arrives (Figure 5-2's second mode);
* **AFS keepalives** from the file server to the measured hosts: small
  frames costing receive-side CPU only;
* **telemetry streams**: the paper's rig recorded and analyzed "data in
  real time" with "all machines in the test ... directed by a central
  control machine" over UNIX sockets.  Each measured host ships measurement
  records to the control machine over TCP; the resulting MSS-sized segments
  (1522 bytes on the wire -- the paper's third traffic size class) are the
  local transmissions whose ~6.8 ms service time produces the 9400 us
  second mode of Figure 5-2.  The paper does not give the stream's rate;
  ours is DERIVED, calibrated so the delayed fractions match the figure.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.experiments.testbed import Host, HostConfig, Testbed
from repro.protocols.stack import NetStack
from repro.ring.frames import Frame
from repro.ring.station import RingStation
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC
from repro.unix.process import UserProcess


class LightweightSender:
    """A wire-load station without a machine model behind it.

    Emits frames per an exponential process; destination stations treat
    them as ordinary LLC traffic.
    """

    def __init__(
        self,
        testbed: Testbed,
        name: str,
        dst: str,
        info_bytes: int,
        mean_packets_per_sec: float,
        rng: RandomStreams,
        protocol: str = "ip",
    ) -> None:
        self.sim = testbed.sim
        self.station = RingStation(testbed.ring, name)
        self.dst = dst
        self.info_bytes = info_bytes
        self.rate = mean_packets_per_sec
        self.protocol = protocol
        self._rng = rng.get(f"bg.{name}")
        self._running = False
        self.stats_sent = 0

    def start(self) -> None:
        if self._running or self.rate <= 0:
            return
        self._running = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = max(1, round(self._rng.expovariate(self.rate / SEC)))
        self.sim.schedule_fast(gap, self._emit)

    def _emit(self) -> None:
        self.stats_sent += 1
        self.station.transmit(
            Frame(
                src=self.station.address,
                dst=self.dst,
                info_bytes=self.info_bytes,
                priority=0,
                protocol=self.protocol,
            )
        )
        self._schedule_next()


class BackgroundTraffic:
    """The full Test Case B load around a transmitter/receiver pair.

    ``load`` scales all rates; 1.0 approximates the paper's "normal loading
    of network" (a compile's file transfers plus keepalive chatter).
    """

    def __init__(
        self,
        testbed: Testbed,
        measured_hosts: list[Host],
        load: float = 1.0,
        control_host: Optional[Host] = None,
    ) -> None:
        self.testbed = testbed
        self.load = load
        self.senders: list[LightweightSender] = []
        self._keepalive_procs: list = []
        if load <= 0:
            self.control = None
            return
        rng = testbed.rng

        # File server <-> compiling client: 1522-byte frames both ways.
        client = RingStation(testbed.ring, "compile-client")
        self.senders.append(
            LightweightSender(
                testbed, "file-server", client.address,
                info_bytes=1522 - 21, mean_packets_per_sec=25.0 * load, rng=rng,
            )
        )
        self.senders.append(
            LightweightSender(
                testbed, "compile-requests", "file-server",
                info_bytes=180, mean_packets_per_sec=8.0 * load, rng=rng,
            )
        )

        # AFS keepalives to the measured hosts (receive-side CPU cost).
        for host in measured_hosts:
            self.senders.append(
                LightweightSender(
                    testbed, f"afs-to-{host.name}", host.name,
                    info_bytes=120, mean_packets_per_sec=2.0 * load, rng=rng,
                )
            )

        # The control machine: a full host exchanging UDP keepalives with
        # each measured host (which must reply -- local transmissions!).
        self.control = control_host or testbed.add_host(
            HostConfig(name="control", multiprogramming=True)
        )
        if not hasattr(self.control, "stack"):
            self.control.stack = NetStack(self.control.kernel, self.control.tr_driver)
        for host in measured_hosts:
            if not hasattr(host, "stack"):
                host.stack = NetStack(host.kernel, host.tr_driver)
        self._measured_hosts = measured_hosts

    #: DERIVED: mean telemetry segments per second per measured host at
    #: load 1.0; calibrated against Figure 5-2's delayed-packet fractions.
    TELEMETRY_SEGMENTS_PER_SEC = 8.0

    def start(self) -> None:
        """Start all flows (call before running the testbed)."""
        for sender in self.senders:
            sender.start()
        if self.load <= 0 or self.control is None:
            return
        rng = self.testbed.rng.get("bg.keepalive")
        for i, host in enumerate(self._measured_hosts):
            self._start_keepalive_pair(host, port=7000 + i, rng=rng)
            self._start_telemetry(host, port=8000 + i, rng=rng)

    def _start_keepalive_pair(self, host: Host, port: int, rng) -> None:
        control_sock = self.control.stack.udp_socket(port)
        host_sock = host.stack.udp_socket(port)
        mean_gap = max(1, round(1.2 * SEC / self.load))

        def control_loop(proc: UserProcess) -> Generator:
            while True:
                yield from proc.sleep_timeout(
                    max(1, round(rng.expovariate(1 / mean_gap)))
                )
                size = rng.randint(60, 300)
                yield from control_sock.sendto(host.name, port, size, tag="ka")

        def host_echo(proc: UserProcess) -> Generator:
            while True:
                dgram = yield from host_sock.recvfrom()
                # The measured host answers -- a local transmission that can
                # occupy the fixed DMA buffer when CTMSP traffic arrives.
                yield from host_sock.sendto(
                    dgram.src_host, dgram.src_port, dgram.data_bytes, tag="ka-reply"
                )

        self._keepalive_procs.append(
            UserProcess(self.control.kernel, f"ka-{host.name}").start(control_loop)
        )
        self._keepalive_procs.append(
            UserProcess(host.kernel, f"echo-{host.name}").start(host_echo)
        )

    def _start_telemetry(self, host: Host, port: int, rng) -> None:
        """Measurement records from ``host`` to the control machine (TCP)."""
        from repro.protocols.headers import TCP_MSS

        self.control.stack.tcp_listen(port)
        mean_gap = max(
            1, round(SEC / (self.TELEMETRY_SEGMENTS_PER_SEC * self.load))
        )

        def host_sender(proc: UserProcess) -> Generator:
            conn = yield from host.stack.tcp_connect(
                port, self.control.name, port
            )
            while True:
                # Records batch up between writes, so each write ships a
                # window's worth of MSS segments back to back.
                yield from proc.sleep_timeout(
                    max(1, round(rng.expovariate(1 / mean_gap)))
                )
                yield from conn.send(TCP_MSS)

        def control_drain(proc: UserProcess) -> Generator:
            while not self.control.stack.tcp.accepted(port):
                yield from proc.sleep_ns(20 * MS)
            conn = self.control.stack.tcp.accepted(port)[0]
            while True:
                yield from conn.recv(1 << 20)

        self._keepalive_procs.append(
            UserProcess(host.kernel, f"telemetry-{host.name}").start(host_sender)
        )
        self._keepalive_procs.append(
            UserProcess(self.control.kernel, f"drain-{host.name}").start(
                control_drain
            )
        )
