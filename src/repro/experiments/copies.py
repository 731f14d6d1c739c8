"""The COPIES experiment: measure Section 2's copy arithmetic.

Pushes a stream through each of the three transfer disciplines and reads the
per-machine copy ledgers, counting *bulk* copies (those moving at least half
a packet's payload -- header stamps and bookkeeping copies are excluded,
as the paper's figures count data movement, not control bytes).  The
measured counts are then checked against :mod:`repro.core.direct`'s model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.direct import CopyCountModel, TransferPath, predicted_copies
from repro.core.session import CTMSSession
from repro.drivers.vca import VCADriverConfig
from repro.experiments.testbed import HostConfig, Testbed
from repro.hardware import calibration
from repro.protocols.stack import NetStack
from repro.sim.units import SEC
from repro.unix.copy import CopyLedger
from repro.unix.process import UserProcess


@dataclass
class MeasuredCopies:
    """Measured per-packet copy counts for one transfer path."""

    path: TransferPath
    cpu_per_packet: float
    dma_per_packet: float
    model: CopyCountModel

    def matches_model(self, slack: float = 0.25) -> bool:
        """Within ``slack`` copies/packet of the Section 2 prediction."""
        return (
            abs(self.cpu_per_packet - self.model.cpu_copies) <= slack
            and abs(self.dma_per_packet - self.model.dma_copies) <= slack
        )


def _bulk(records, threshold_bytes: int) -> int:
    return sum(
        rec.copies
        for rec in records.values()
        if rec.copies and rec.bytes / rec.copies >= threshold_bytes
    )


def _measured(path: TransferPath, ledger: CopyLedger, packets: int) -> MeasuredCopies:
    threshold = calibration.CTMSP_PACKET_BYTES // 2
    model = predicted_copies(path, source_has_dma=False, sink_has_dma=True)
    return MeasuredCopies(
        path,
        _bulk(ledger.cpu, threshold) / packets,
        _bulk(ledger.dma, threshold) / packets,
        model,
    )


def _run_stock_and_grab_ledger(duration_ns: int, seed: int):
    """Stock relay: VCA -> read() -> sendto() on the transmitter machine."""
    bytes_per_period = calibration.CTMSP_PACKET_BYTES
    bed = Testbed(seed=seed, mac_utilization=0.0)
    vca_cfg = VCADriverConfig(
        packet_bytes=bytes_per_period,
        device_bytes_per_period=bytes_per_period,
    )
    tx = bed.add_host(HostConfig(name="transmitter", vca=vca_cfg))
    rx = bed.add_host(HostConfig(name="receiver", vca=vca_cfg))
    tx.stack = NetStack(tx.kernel, tx.tr_driver)
    rx.stack = NetStack(rx.kernel, rx.tr_driver)
    rx.stack.udp_socket(5501)
    sent = [0]

    def sender(proc: UserProcess) -> Generator:
        sock = tx.stack.udp_socket(5501)
        yield from proc.ioctl("vca0", "STOCK_START")
        while True:
            got = yield from proc.read("vca0", bytes_per_period)
            yield from sock.sendto("receiver", 5501, got)
            sent[0] += 1

    UserProcess(tx.kernel, "relay").start(sender)
    bed.run(duration_ns)
    return tx.kernel.ledger, max(1, sent[0])


def _run_ctms_and_grab_ledger(
    duration_ns: int, seed: int, direct_to_buffer: bool
):
    """The VCA handler hands packets straight to the driver; with
    ``direct_to_buffer`` it exchanges DMA buffer pointers instead of
    copying (the extension)."""
    bed = Testbed(seed=seed, mac_utilization=0.0)
    packet = calibration.CTMSP_PACKET_BYTES
    vca_cfg = VCADriverConfig(
        packet_bytes=packet,
        # All packet data comes off the device: the copy census must count
        # real data movement, not synthetic filler.
        device_bytes_per_period=packet,
        copy_vca_data_to_mbufs=True,
        source_direct_to_buffer=direct_to_buffer,
    )
    tx = bed.add_host(HostConfig(name="transmitter", vca=vca_cfg))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(duration_ns)
    packets = tx.vca_driver.stats_packets_built
    return tx.kernel.ledger, max(1, packets)


def measure_all(duration_ns: int = 10 * SEC, seed: int = 5) -> list[MeasuredCopies]:
    """The three disciplines: user-process relay, direct driver, pointer
    passing.  Section 2 frames the count as device-to-device *within one
    machine* (Figures 2-1/2-2), so only the transmitter's ledger is read."""
    return [
        _measured(
            TransferPath.USER_PROCESS, *_run_stock_and_grab_ledger(duration_ns, seed)
        ),
        _measured(
            TransferPath.DIRECT_DRIVER,
            *_run_ctms_and_grab_ledger(duration_ns, seed, direct_to_buffer=False),
        ),
        _measured(
            TransferPath.POINTER_PASSING,
            *_run_ctms_and_grab_ledger(duration_ns, seed, direct_to_buffer=True),
        ),
    ]
