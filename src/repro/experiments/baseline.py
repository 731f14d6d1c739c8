"""The BASELINE experiment: the stock UNIX path at 16 vs 150 KB/s.

Section 1: "The initial test was to transport 16KBytes/sec of audio data
(8K samples/sec, 12 bit/sample).  This worked extremely well within the
current UNIX model.  We then tested the use of 150KBytes/sec to simulate
compressed video or Compact Disc quality audio.  This test of data transport
failed completely."

The stock path is the Figure 2-1 relay: a user process reads the VCA
character device and writes a UDP socket; on the receiver another process
reads the socket and writes the sink device.  Both machines run in
multiprocessing mode with a competing compute-bound process, so the relay
is exposed to scheduler quantum delays -- together with the per-packet copy
bill, what sinks the 150 KB/s case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.experiments.testbed import HostConfig, Testbed
from repro.drivers.vca import VCADriverConfig
from repro.hardware import calibration
from repro.protocols.stack import NetStack
from repro.sim.units import MS, SEC
from repro.unix.process import UserProcess

#: UDP port the relay streams to.
STREAM_PORT = 5500


@dataclass
class BaselineResult:
    """What one stock-UNIX run produced."""

    rate_bytes_per_sec: int
    bytes_per_period: int
    duration_ns: int
    periods_produced: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0
    device_overruns: int = 0
    socket_drops: int = 0
    sink_write_times: list[int] = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        if self.periods_produced == 0:
            return 0.0
        return self.packets_delivered / self.periods_produced

    @property
    def glitches(self) -> int:
        """Lost device periods: overruns at the source plus socket drops."""
        return self.device_overruns + self.socket_drops

    def glitch_rate_per_sec(self) -> float:
        return self.glitches / (self.duration_ns / SEC)

    def achieved_bytes_per_sec(self) -> float:
        return (
            self.packets_delivered
            * self.bytes_per_period
            / (self.duration_ns / SEC)
        )

    def works(self) -> bool:
        """The paper's pass criterion: essentially no glitches."""
        return self.delivered_fraction > 0.99 and self.glitch_rate_per_sec() < 0.1


def run_stock_relay(
    rate_bytes_per_sec: int,
    duration_ns: int = 20 * SEC,
    seed: int = 3,
    competing_load: bool = True,
) -> BaselineResult:
    """Stream ``rate_bytes_per_sec`` through the stock UNIX relay."""
    bytes_per_period = max(
        1, round(rate_bytes_per_sec * calibration.VCA_INTERRUPT_PERIOD / SEC)
    )
    bed = Testbed(seed=seed, mac_utilization=0.002)
    vca_cfg = VCADriverConfig(
        packet_bytes=bytes_per_period,
        device_bytes_per_period=bytes_per_period,
    )
    tx = bed.add_host(
        HostConfig(name="transmitter", multiprogramming=True, vca=vca_cfg)
    )
    rx = bed.add_host(
        HostConfig(name="receiver", multiprogramming=True, vca=vca_cfg)
    )
    tx.stack = NetStack(tx.kernel, tx.tr_driver)
    rx.stack = NetStack(rx.kernel, rx.tr_driver)
    result = BaselineResult(
        rate_bytes_per_sec=rate_bytes_per_sec,
        bytes_per_period=bytes_per_period,
        duration_ns=duration_ns,
    )

    rx_sock = rx.stack.udp_socket(STREAM_PORT)

    def sender(proc: UserProcess) -> Generator:
        sock = tx.stack.udp_socket(STREAM_PORT)
        yield from proc.ioctl("vca0", "STOCK_START")
        while True:
            got = yield from proc.read("vca0", bytes_per_period)
            yield from sock.sendto("receiver", STREAM_PORT, got)
            result.packets_sent += 1

    def receiver(proc: UserProcess) -> Generator:
        while True:
            dgram = yield from rx_sock.recvfrom()
            yield from proc.write("vca0", dgram.data_bytes)
            result.packets_delivered += 1
            result.sink_write_times.append(bed.sim.now)

    def hog(proc: UserProcess) -> Generator:
        # A competing compute-bound process ("multiprocessing mode"): it
        # never blocks, so the relay shares the CPU round-robin.
        while True:
            yield from proc.compute(50 * MS)

    UserProcess(rx.kernel, "relay-rx").start(receiver)
    UserProcess(tx.kernel, "relay-tx").start(sender)
    if competing_load:
        UserProcess(tx.kernel, "hog-tx").start(hog)
        UserProcess(rx.kernel, "hog-rx").start(hog)
    bed.run(duration_ns)

    result.periods_produced = tx.vca_adapter.stats_interrupts
    result.device_overruns = tx.vca_driver.stats_stock_overruns
    result.socket_drops = rx_sock.stats_drops_full_buffer
    return result


def run_rate_comparison(
    duration_ns: int = 20 * SEC, seed: int = 3
) -> dict[int, BaselineResult]:
    """The Section 1 pair: 16 KB/s (works) vs 150 KB/s (fails)."""
    return {
        16_000: run_stock_relay(16_000, duration_ns, seed),
        150_000: run_stock_relay(150_000, duration_ns, seed),
    }
