"""Token Ring experiments: MAC-frame load (Section 4), Ring Purge and
station insertions (Sections 4-5), CTMSP's ring media priority under a
compile storm (Section 3), and how many streams one 4 Mbit ring carries.
``repro.experiments.claims`` runs these for their ``results/`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.recovery import SequenceTracker
from repro.core.session import CTMSSession
from repro.experiments.runner import build_scenario
from repro.experiments.scenarios import test_case_a, test_case_b
from repro.experiments.testbed import HostConfig, Testbed
from repro.hardware import calibration
from repro.ring.monitor import ActiveMonitor
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import HOUR, MS, SEC, US
from repro.workloads.background import LightweightSender

#: Cost to take the interrupt and parse one MAC frame header, per Section
#: 4's "additional interrupt and software decoding of packet headers".
MAC_SERVICE_COST = calibration.IRQ_ENTRY_OVERHEAD + 30 * US


def measure_mac_band(
    duration_ns: int = 30 * SEC, seed: int = 4
) -> list[tuple[float, float, float]]:
    """``(MAC utilization, MAC frames/s, CPU fraction)`` across the band."""
    results = []
    for util in (
        calibration.MAC_TRAFFIC_UTILIZATION_LOW,
        0.006,
        calibration.MAC_TRAFFIC_UTILIZATION_HIGH,
    ):
        sim = Simulator()
        ring = TokenRing(sim)
        monitor = ActiveMonitor(sim, ring, RandomStreams(seed), mac_utilization=util)
        # A hypothetical adapter programmed "to read all MAC frames".
        promiscuous = RingStation(ring, "mac-listener", accept_mac_frames=True)
        seen = []
        promiscuous.receive = seen.append
        monitor.start()
        sim.run(until=duration_ns)
        per_sec = len(seen) / (duration_ns / SEC)
        cpu_fraction = per_sec * MAC_SERVICE_COST / SEC
        results.append((util, per_sec, cpu_fraction))
    return results


#: One phase-locked Ring Purge every this often (see run_purge_experiment).
PURGE_SPACING = 500 * MS


@dataclass
class PurgeRun:
    """What a run of phase-locked purges did to one CTMSP stream."""

    purges: int
    lost_on_ring: int
    retransmits: int
    tracker: SequenceTracker  # the sink's


def run_purge_experiment(
    purge_retransmit: bool, duration_ns: int = 16 * SEC, seed: int = 6
) -> PurgeRun:
    """Test Case A's stream with a Ring Purge every half second, the last
    one a second before the end."""
    scenario = test_case_a(seed=seed)
    bed = Testbed(seed=seed, mac_utilization=scenario.mac_utilization)
    tx_tr, tx_vca = scenario.transmitter_config()
    rx_tr, rx_vca = scenario.receiver_config()
    tx_tr.purge_retransmit = purge_retransmit
    tx = bed.add_host(HostConfig(name="transmitter", tr=tx_tr, vca=tx_vca))
    rx = bed.add_host(HostConfig(name="receiver", tr=rx_tr, vca=rx_vca))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    # Purge while a CTMSP frame is mid-flight: packets leave every 12ms and
    # spend ~4ms on the wire, so purging at a fixed phase inside the period
    # reliably catches some in flight.
    for i in range(duration_ns // PURGE_SPACING - 2):
        bed.sim.schedule((1 + i) * PURGE_SPACING + 7 * MS, bed.ring.purge)
    bed.run(duration_ns)
    return PurgeRun(
        purges=bed.ring.stats_purges,
        lost_on_ring=bed.ring.stats_lost_by_protocol.get("ctmsp", 0),
        retransmits=tx.tr_driver.stats_retransmits,
        tracker=session.sink_tracker,
    )


def run_insertions(duration_ns: int = 6 * HOUR, seed: int = 8) -> Testbed:
    """An idle ring at ~20 station insertions a day, for ``duration_ns``."""
    bed = Testbed(seed=seed, mac_utilization=0.0, insertions_per_day=20.0)
    bed.start_environment()
    bed.run(duration_ns)
    return bed


@dataclass
class PriorityRun:
    """One CTMSP stream's ring access under the compile storm."""

    token_wait_ns: float  # mean per CTMSP frame
    lost: int


def _run_heavy_ring(
    ctmsp_ring_priority: int, duration_ns: int, seed: int
) -> PriorityRun:
    """A CTMS stream sharing the ring with a compile storm (~45% wire):
    Test Case B's hosts, stand-alone, on an otherwise quiet ring."""
    scenario = test_case_b(duration_ns, seed).variant(
        "storm", ctmsp_ring_priority=ctmsp_ring_priority, mac_utilization=0.002,
        multiprogramming=False, background_load=0.0,
    )
    bed, tx, rx, _background = build_scenario(scenario)
    # Four busy stations attached after the hosts: without media priority a
    # CTMSP frame waits for each of their queued frames as the token works
    # around the ring; with priority the reservation jumps the whole pack.
    sink = RingStation(bed.ring, "fs-client")
    storms = [
        LightweightSender(bed, f"fileserver{i}", sink.address, info_bytes=1501,
                          mean_packets_per_sec=38.0, rng=bed.rng)
        for i in range(4)
    ]
    for storm in storms:
        storm.start()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(duration_ns)
    frames = bed.ring.stats_by_protocol["ctmsp"]["frames"]
    wait = bed.ring.stats_token_wait_ns.get("ctmsp", 0) / max(1, frames)
    return PriorityRun(wait, session.sink_tracker.lost_packets)


def run_ring_priority(
    duration_ns: int = 15 * SEC, seed: int = 6
) -> dict[int, PriorityRun]:
    """The stream at ring priority 4 (CTMSP above all) and at 0."""
    return {p: _run_heavy_ring(p, duration_ns, seed) for p in (4, 0)}


def run_stream_sweep(duration_ns: int = 20 * SEC, seed: int = 21) -> dict[int, dict]:
    """One, two and three concurrent CTMSP streams, each between its own
    pair of hosts: per-stream delivery and the ring's utilization."""
    results = {}
    for n in (1, 2, 3):
        bed = Testbed(seed=seed, mac_utilization=0.002)
        streams = []
        for i in range(n):
            tx = bed.add_host(HostConfig(name=f"tx{i}"))
            rx = bed.add_host(HostConfig(name=f"rx{i}"))
            session = CTMSSession(tx.kernel, rx.kernel)
            session.establish()
            streams.append((tx, session))
        bed.run(duration_ns)
        results[n] = {
            "streams": [
                {
                    "fraction": s.stats.delivered / max(1, tx.vca_adapter.stats_interrupts),
                    "worst_latency_ns": s.stats.max_latency_ns(),
                    "queue_peak": tx.tr_driver.stats_tx_queue_peak,
                }
                for tx, s in streams
            ],
            "ring_util": bed.ring.utilization(duration_ns),
        }
    return results
