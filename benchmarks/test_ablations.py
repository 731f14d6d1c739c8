"""ABLATE: the Section 5.3 toggle matrix, one switch at a time.

The paper lists the dimensions that "will alter the results"; DESIGN.md
calls out the ones worth ablating.  Each ablation flips one switch off the
Test Case B configuration and reports the effect, demonstrating *why* each
of the paper's modifications is in the design.  The matrix itself lives in
:mod:`repro.experiments.ablations` (also reachable via
``python -m repro ablate``).
"""

from repro.core.session import CTMSSession
from repro.experiments.ablations import TABLE_HEADERS, run_matrix
from repro.experiments.reporting import emit
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.experiments.testbed import HostConfig, Testbed
from repro.obs.metrics import format_table
from repro.ring.station import RingStation
from repro.sim.units import MS, SEC, US
from repro.workloads.background import LightweightSender

DURATION = 25 * SEC


def test_ablations():
    summary = run_matrix(DURATION, 1)

    emit(
        "ablations",
        format_table(
            "Section 5.3 ablations (Test Case B, one switch flipped at a time)",
            TABLE_HEADERS,
            [entry.as_row() for entry in summary.values()],
        ),
    )

    base = summary["baseline (Test B)"]
    # System-memory DMA buffers: every adapter DMA steals cycles from the
    # memory-intensive computation (Section 4's argument, literally its
    # scenario).
    sysmem = summary["fixed DMA buffers in system memory"]
    assert sysmem.compute_chunks < 0.97 * base.compute_chunks

    # Per-packet header recomputation adds its fixed cost to every packet's
    # floor (Section 3's argument for the precomputed header).
    header = summary["recompute TR header per packet"]
    assert header.h6_min >= base.h6_min + 100 * US

    # Without driver priority, CTMSP queues behind ARP/IP locally: the
    # transmit-path tail grows.
    noprio = summary["no driver priority for CTMSP"]
    assert noprio.h6_p95 >= base.h6_p95

    # All variants still deliver (the modifications buy margin, not
    # correctness, on this workload).
    for name, entry in summary.items():
        assert entry.delivered > 1900, name
        assert entry.lost == 0, name


def _run_heavy_ring(ctmsp_ring_priority: int):
    """A CTMS stream sharing the ring with a compile storm (~45% wire)."""
    bed = Testbed(seed=6, mac_utilization=0.002)
    base = scenario_b(duration_ns=15 * SEC, seed=6)
    variant = base.variant("x", ctmsp_ring_priority=ctmsp_ring_priority)
    tx_tr, tx_vca = variant.transmitter_config()
    rx_tr, rx_vca = variant.receiver_config()
    tx = bed.add_host(HostConfig(name="transmitter", tr=tx_tr, vca=tx_vca))
    rx = bed.add_host(HostConfig(name="receiver", tr=rx_tr, vca=rx_vca))
    # Four busy stations attached after the hosts: without media priority a
    # CTMSP frame waits for each of their queued frames as the token works
    # around the ring; with priority the reservation jumps the whole pack.
    sink = RingStation(bed.ring, "fs-client")
    storms = [
        LightweightSender(
            bed, f"fileserver{i}", sink.address, info_bytes=1501,
            mean_packets_per_sec=38.0, rng=bed.rng,
        )
        for i in range(4)
    ]
    for storm in storms:
        storm.start()
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(15 * SEC)
    frames = bed.ring.stats_by_protocol["ctmsp"]["frames"]
    wait = bed.ring.stats_token_wait_ns.get("ctmsp", 0) / max(1, frames)
    return wait, session, bed


def test_ring_priority_matters_under_ring_load():
    """Section 3: "CTMSP uses a Token Ring priority above any other traffic"
    -- under a compile storm occupying ~45% of the wire, the priority keeps
    CTMSP's token access delay flat; without it the wait grows severalfold."""

    def run_both():
        with_priority, s1, _ = _run_heavy_ring(4)
        without_priority, s2, _ = _run_heavy_ring(0)
        return with_priority, without_priority, s1, s2

    with_priority, without_priority, s1, s2 = run_both()
    emit(
        "ring_priority_heavy",
        format_table(
            "Ring media priority under a compile storm (~45% wire load)",
            ["configuration", "mean CTMSP token wait"],
            [
                ["priority 4 (CTMSP above all)", f"{with_priority / US:.0f} us"],
                ["priority 0 (ordinary traffic)", f"{without_priority / US:.0f} us"],
            ],
        ),
    )
    assert without_priority > 1.3 * with_priority
    # Both still deliver (the ring has capacity; priority buys latency).
    assert s1.sink_tracker.lost_packets == 0
