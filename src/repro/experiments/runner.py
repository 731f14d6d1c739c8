"""Scenario runner: reproduce the Section 5.3 measurement campaign.

Builds the testbed for a :class:`~repro.experiments.scenarios.Scenario`,
cables the PC/AT timestamper to the paper's four measurement points, runs,
and computes the seven histograms:

1. inter-occurrence of the VCA's Interrupt Request Line pulses;
2. inter-occurrence of VCA interrupt-handler entries;
3. inter-occurrence of the pre-transmit point (packet copied into the fixed
   DMA buffer, transmit command about to be issued);
4. inter-occurrence of the receive-side CTMSP classification point;
5. per-packet differences between like occurrences of (1) and (2);
6. per-packet differences between (2) and (3)  -- Figure 5-2 for Test B;
7. per-packet differences between (3) and (4)  -- Figures 5-3 and 5-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.ctmsp import CTMSPPacket
from repro.core.session import CTMSSession
from repro.experiments.scenarios import Scenario
from repro.experiments.testbed import Host, HostConfig, Testbed
from repro.hardware.parallel_port import PORT_WRITE_CODE_COST, ParallelPort
from repro.measure.histogram import Histogram
from repro.measure.pcat import PcatTimestamper, match_by_packet_number
from repro.ring.frames import Frame
from repro.sim.units import US
from repro.workloads.background import BackgroundTraffic

#: PC/AT channel assignments (the paper's cabling).
CH_VCA_IRQ = 0
CH_HANDLER_ENTRY = 1
CH_PRE_TRANSMIT = 2
CH_RX_CLASSIFIED = 3

HISTOGRAM_NAMES = {
    1: "h1: VCA IRQ inter-occurrence",
    2: "h2: VCA handler entry inter-occurrence",
    3: "h3: pre-transmit inter-occurrence",
    4: "h4: rx-classified inter-occurrence",
    5: "h5: IRQ to handler entry (per packet)",
    6: "h6: handler entry to pre-transmit (per packet)",
    7: "h7: pre-transmit to rx-classified (per packet)",
}


@dataclass
class RunResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    histograms: dict[int, Histogram]
    testbed: Testbed
    transmitter: Host
    receiver: Host
    session: CTMSSession
    background: Optional[BackgroundTraffic] = None

    @property
    def stream(self):
        return self.session.stats

    @property
    def tracker(self):
        return self.session.sink_tracker


def build_scenario(scenario: Scenario):
    """Assemble (but do not run) a scenario's testbed. Returns pieces."""
    bed = Testbed(
        seed=scenario.seed,
        mac_utilization=scenario.mac_utilization,
        insertions_per_day=scenario.insertions_per_day,
        soft_errors_per_hour=scenario.soft_errors_per_hour,
    )
    tx_tr, tx_vca = scenario.transmitter_config()
    rx_tr, rx_vca = scenario.receiver_config()
    tx = bed.add_host(
        HostConfig(
            name="transmitter",
            multiprogramming=scenario.multiprogramming,
            tr=tx_tr,
            vca=tx_vca,
        )
    )
    rx = bed.add_host(
        HostConfig(
            name="receiver",
            multiprogramming=scenario.multiprogramming,
            tr=rx_tr,
            vca=rx_vca,
        )
    )
    background = None
    if scenario.background_load > 0:
        background = BackgroundTraffic(
            bed, [tx, rx], load=scenario.background_load
        )
    return bed, tx, rx, background


def run_scenario(scenario: Scenario, tracer=None) -> RunResult:
    """Run one scenario and compute the seven histograms.

    ``tracer`` (a :class:`repro.obs.instrument.DataPathTracer`) attaches
    span instrumentation to the assembled hosts and the ring.  It rides in
    probe/listener hook points only, so traced runs replay the identical
    event calendar (the overhead-guard test holds this).
    """
    bed, tx, rx, background = build_scenario(scenario)
    pcat = PcatTimestamper(bed.sim, bed.rng)
    pcat.start()
    _wire_measurement_points(pcat, tx, rx)
    if tracer is not None:
        if tracer.recorder.sim is None:
            tracer.recorder.sim = bed.sim
        # Receiver attachment wraps the delivery handle, which must be in
        # place before session establishment registers it with the driver.
        tracer.attach_transmitter(tx)
        tracer.attach_ring(bed.ring)
        tracer.attach_receiver(rx)

    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    if background is not None:
        background.start()
    bed.run(scenario.duration_ns)

    if tracer is not None:
        tracer.finalize(scenario.duration_ns, session=session, testbed=bed)
    histograms = compute_histograms(pcat)
    return RunResult(
        scenario=scenario,
        histograms=histograms,
        testbed=bed,
        transmitter=tx,
        receiver=rx,
        session=session,
        background=background,
    )


def _wire_measurement_points(
    pcat: PcatTimestamper, tx: Host, rx: Host
) -> None:
    """Cable the four points of Section 5.2 to the PC/AT channels."""
    sim = tx.machine.sim

    # Point 1: the VCA IRQ line, probed electrically (no CPU cost, the pulse
    # value is a hardware counter's low 7 bits).
    port_irq = ParallelPort(sim, "tx-irq-line")
    pcat.connect(CH_VCA_IRQ, port_irq)
    pulse_counter = {"n": 0}

    def on_irq_pulse(_t: int) -> None:
        port_irq.emit(pulse_counter["n"] & 0x7F)
        pulse_counter["n"] += 1

    tx.vca_adapter.irq_listeners.append(on_irq_pulse)

    # Point 2: VCA handler entry -- in-line code in the handler.
    port_p2 = ParallelPort(sim, "tx-p2")
    pcat.connect(CH_HANDLER_ENTRY, port_p2)

    def probe_p2(packet_no: int) -> int:
        port_p2.emit(packet_no & 0x7F)
        return PORT_WRITE_CODE_COST

    tx.vca_driver.add_probe("p2", probe_p2)

    # Point 3: just before the transmit command, CTMSP packets only
    # ("the shortest possible test to determine if the packet was an CTMSP
    # packet").
    port_p3 = ParallelPort(sim, "tx-p3")
    pcat.connect(CH_PRE_TRANSMIT, port_p3)

    def probe_p3(frame: Frame) -> int:
        if isinstance(frame.payload, CTMSPPacket):
            port_p3.emit(frame.payload.wire_packet_number)
            return PORT_WRITE_CODE_COST
        return 2 * US  # the test itself, for non-CTMSP packets

    tx.tr_driver.add_probe("p3", probe_p3)

    # Point 4: receive-side classification, on the receiver machine.
    port_p4 = ParallelPort(sim, "rx-p4")
    pcat.connect(CH_RX_CLASSIFIED, port_p4)

    def probe_p4(frame: Frame) -> int:
        if isinstance(frame.payload, CTMSPPacket):
            port_p4.emit(frame.payload.wire_packet_number)
            return PORT_WRITE_CODE_COST
        return 2 * US

    rx.tr_driver.add_probe("p4", probe_p4)


def compute_histograms(pcat: PcatTimestamper) -> dict[int, Histogram]:
    """The paper's seven histograms from the reconstructed channel data."""
    channels = pcat.reconstruct()
    irq = channels[CH_VCA_IRQ]
    entry = channels[CH_HANDLER_ENTRY]
    pre_tx = channels[CH_PRE_TRANSMIT]
    classified = channels[CH_RX_CLASSIFIED]

    def inter(events: list[tuple[int, int]]) -> list[int]:
        times = [t for t, _v in events]
        return [b - a for a, b in zip(times, times[1:])]

    histograms = {
        1: Histogram(inter(irq), name=HISTOGRAM_NAMES[1]),
        2: Histogram(inter(entry), name=HISTOGRAM_NAMES[2]),
        3: Histogram(inter(pre_tx), name=HISTOGRAM_NAMES[3]),
        4: Histogram(inter(classified), name=HISTOGRAM_NAMES[4]),
        5: Histogram(
            [d for d, _n in match_by_packet_number(irq, entry)],
            name=HISTOGRAM_NAMES[5],
        ),
        6: Histogram(
            [d for d, _n in match_by_packet_number(entry, pre_tx)],
            name=HISTOGRAM_NAMES[6],
        ),
        7: Histogram(
            [d for d, _n in match_by_packet_number(pre_tx, classified)],
            name=HISTOGRAM_NAMES[7],
        ),
    }
    return histograms
