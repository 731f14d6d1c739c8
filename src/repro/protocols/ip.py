"""The IP layer.

Two properties matter to the paper's argument:

* output pays :data:`~repro.hardware.calibration.IP_OUTPUT_COST` *plus* a
  fresh Token Ring header computation for every packet -- "IP requests the
  Token Ring header be recomputed for each packet transmitted.  In our case,
  the transmitter and receiver are always on the same local area network ...
  this would add an additional delay and load on the CPU for no reason";
* IP frames ride the driver's ordinary output queue at ring priority 0,
  below CTMSP on both counts.
"""

from __future__ import annotations

from typing import Generator

from repro.hardware import calibration
from repro.hardware.cpu import Exec
from repro.protocols.headers import Datagram
from repro.ring.frames import Frame
from repro.sim.units import US
from repro.unix.mbuf import MbufChain

#: Per-packet input processing (checksum verify, demux).
IP_INPUT_COST = 150 * US


class IpLayer:
    """One host's IP input/output."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self.stats_packets_out = 0
        self.stats_packets_in = 0
        self.stats_no_mbufs = 0

    def output(self, dgram: Datagram, chain: MbufChain) -> Generator:
        """Send one datagram (``chain`` already holds headers + data)."""
        yield Exec(calibration.IP_OUTPUT_COST)
        address = yield from self.stack.arp.resolve(dgram.dst_host)
        # The per-packet Token Ring header recomputation CTMSP eliminates.
        yield Exec(self.stack.tr_driver.compute_header_cost())
        frame = Frame(
            src=self.stack.address,
            dst=address,
            info_bytes=dgram.info_bytes,
            priority=0,
            protocol="ip",
            payload=dgram,
        )
        self.stats_packets_out += 1
        yield from self.stack.tr_driver.output(chain, frame)

    def input(self, frame: Frame, chain: MbufChain) -> Generator:
        """ipintr(): demux to the transport protocols."""
        yield Exec(IP_INPUT_COST)
        self.stats_packets_in += 1
        dgram = frame.payload
        if not isinstance(dgram, Datagram):
            chain.free()
            return
        if dgram.proto == "udp":
            yield from self.stack.udp.input(dgram, chain)
        elif dgram.proto == "tcp":
            yield from self.stack.tcp.input(dgram, chain)
        else:
            chain.free()
