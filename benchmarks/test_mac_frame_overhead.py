"""MACLOAD: Section 4's MAC-frame interrupt-cost argument.

Paper: "the amount of MAC frame traffic on the Token Ring we use is between
0.2% and 1.0%.  The MAC frame packets are on the order of 20 bytes of data.
Given a 4Mbit Token Ring, there would be between 50 and 250 interrupts to
handle MAC frames per second.  This additional interrupt and software
decoding of packet headers would add an unacceptable amount of overhead to
detect the small number of Ring Purges that occur."

We sweep the MAC utilization band, count what a hypothetical
pass-MAC-frames-to-host adapter would deliver, and price the interrupt
load.
"""

from repro.experiments.reporting import emit
from repro.hardware import calibration
from repro.obs.metrics import format_table
from repro.ring.monitor import ActiveMonitor
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import SEC, US

#: Cost to take the interrupt and parse one MAC frame header, per Section
#: 4's "additional interrupt and software decoding of packet headers".
MAC_SERVICE_COST = calibration.IRQ_ENTRY_OVERHEAD + 30 * US

DURATION = 30 * SEC


def measure_mac_band():
    results = []
    for util in (
        calibration.MAC_TRAFFIC_UTILIZATION_LOW,
        0.006,
        calibration.MAC_TRAFFIC_UTILIZATION_HIGH,
    ):
        sim = Simulator()
        ring = TokenRing(sim)
        monitor = ActiveMonitor(
            sim, ring, RandomStreams(4), mac_utilization=util
        )
        # A hypothetical adapter programmed "to read all MAC frames".
        promiscuous = RingStation(ring, "mac-listener", accept_mac_frames=True)
        seen = []
        promiscuous.receive = seen.append
        monitor.start()
        sim.run(until=DURATION)
        per_sec = len(seen) / (DURATION / SEC)
        cpu_fraction = per_sec * MAC_SERVICE_COST / SEC
        results.append((util, per_sec, cpu_fraction))
    return results


def test_mac_frame_interrupt_rate_band():
    results = measure_mac_band()
    rows = [
        [
            f"{util * 100:.1f}%",
            f"{per_sec:.0f}/s",
            f"{cpu * 100:.2f}%",
        ]
        for util, per_sec, cpu in results
    ]
    emit(
        "mac_frame_overhead",
        format_table(
            "Section 4: hypothetical host-visible MAC frame load "
            "(paper: 50-250 interrupts/s across the 0.2-1.0% band)",
            ["MAC utilization", "interrupts", "CPU overhead"],
            rows,
        ),
    )

    low = results[0]
    high = results[-1]
    # The paper's arithmetic: 0.2% -> ~50/s, 1.0% -> ~250/s.
    assert 35 <= low[1] <= 70
    assert 180 <= high[1] <= 320
    # The monotone cost relationship that makes the mode "unacceptable" for
    # catching ~20 purges/day.
    assert high[2] > 4 * low[2]
    assert high[2] >= 0.015  # >= 1.5% of the CPU for nothing, at the top end
