"""Address resolution.

On the paper's single ring, host addresses and ring addresses coincide, so
resolution is trivially satisfiable -- but ARP still matters twice: its
broadcast request/reply frames are part of the background traffic the paper
names in Figure 5-2's analysis, and its cache-miss stall is one more latency
source the stock path pays and CTMSP's static connection does not.
"""

from __future__ import annotations

from typing import Generator

from repro.hardware.cpu import Exec
from repro.protocols.headers import ARP_PACKET_BYTES
from repro.ring.frames import BROADCAST, Frame
from repro.sim.engine import Event
from repro.sim.units import MINUTE, US


class ArpLayer:
    """One host's ARP: cache, request/reply, periodic refresh traffic."""

    #: 4.3BSD flushed complete entries after 20 minutes.
    CACHE_TTL = 20 * MINUTE

    def __init__(self, stack) -> None:
        self.stack = stack
        self.sim = stack.sim
        self._cache: dict[str, tuple[str, int]] = {}
        self._pending: dict[str, list[Event]] = {}
        self.stats_requests_sent = 0
        self.stats_replies_sent = 0
        self.stats_cache_hits = 0

    def resolve(self, dst_host: str) -> Generator:
        """``yield from`` helper: returns the ring address for ``dst_host``.

        Cache hit is free; a miss broadcasts a request and blocks the caller
        until the reply arrives.
        """
        entry = self._cache.get(dst_host)
        if entry is not None and self.sim.now - entry[1] < self.CACHE_TTL:
            self.stats_cache_hits += 1
            return entry[0]
        ev = self.sim.event(name=f"arp:{dst_host}")
        waiters = self._pending.setdefault(dst_host, [])
        waiters.append(ev)
        if len(waiters) == 1:
            yield from self._send_request(dst_host)
        address = yield from self.stack.wait_in_process(ev)
        return address

    def _send_request(self, dst_host: str) -> Generator:
        self.stats_requests_sent += 1
        yield Exec(60 * US)
        chain = self.stack.kernel.mbufs.try_alloc_chain(ARP_PACKET_BYTES)
        frame = Frame(
            src=self.stack.address,
            dst=BROADCAST,
            info_bytes=ARP_PACKET_BYTES,
            protocol="arp",
            payload=("request", dst_host, self.stack.address),
        )
        yield from self.stack.tr_driver.output(chain, frame)

    def input(self, frame: Frame) -> Generator:
        """ARP input from the driver's LLC split point."""
        yield Exec(40 * US)
        kind, target, origin = frame.payload
        # Every ARP packet teaches us the sender's address.
        self._learn(origin, frame.src)
        if kind == "request" and target == self.stack.address:
            yield from self._send_reply(frame.src)
        elif kind == "reply" and target == self.stack.address:
            pass  # _learn already resolved the waiters

    def _send_reply(self, requester_address: str) -> Generator:
        self.stats_replies_sent += 1
        chain = self.stack.kernel.mbufs.try_alloc_chain(ARP_PACKET_BYTES)
        frame = Frame(
            src=self.stack.address,
            dst=requester_address,
            info_bytes=ARP_PACKET_BYTES,
            protocol="arp",
            payload=("reply", requester_address, self.stack.address),
        )
        yield from self.stack.tr_driver.output(chain, frame)

    def _learn(self, host: str, address: str) -> None:
        self._cache[host] = (address, self.sim.now)
        for ev in self._pending.pop(host, []):
            ev.succeed(address)
