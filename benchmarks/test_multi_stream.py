"""MULTI: how many CTMS streams does a 4 Mbit Token Ring carry?

An extension experiment the paper's introduction begs for: "distributed
multimedia" means more than one stream.  Each 150 KB/s-class CTMSP stream
occupies ~168 KB/s of the ring's 500 KB/s raw capacity (2021 wire bytes per
12 ms), so the wire fits two streams comfortably and chokes on a third --
a crossover the experiment locates empirically.
"""

from repro.core.session import CTMSSession
from repro.experiments.reporting import emit
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.obs.metrics import format_table
from repro.sim.units import MS, SEC

DURATION = 20 * SEC


def run_streams(n_streams: int, seed: int = 21):
    bed = _Testbed(seed=seed, mac_utilization=0.002)
    sessions = []
    for i in range(n_streams):
        tx = bed.add_host(HostConfig(name=f"tx{i}"))
        rx = bed.add_host(HostConfig(name=f"rx{i}"))
        session = CTMSSession(tx.kernel, rx.kernel)
        session.establish()
        sessions.append((tx, rx, session))
    bed.run(DURATION)
    return bed, sessions


def run_sweep():
    results = {}
    for n in (1, 2, 3):
        bed, sessions = run_streams(n)
        per_stream = []
        for tx, rx, session in sessions:
            offered = tx.vca_adapter.stats_interrupts
            delivered = session.stats.delivered
            worst_latency = session.stats.max_latency_ns()
            queue_peak = tx.tr_driver.stats_tx_queue_peak
            per_stream.append(
                {
                    "offered": offered,
                    "delivered": delivered,
                    "fraction": delivered / max(1, offered),
                    "worst_latency_ns": worst_latency,
                    "queue_peak": queue_peak,
                }
            )
        results[n] = {
            "streams": per_stream,
            "ring_util": bed.ring.utilization(DURATION),
        }
    return results


def test_multi_stream_capacity():
    results = run_sweep()

    rows = []
    for n, data in results.items():
        worst = min(s["fraction"] for s in data["streams"])
        latency = max(s["worst_latency_ns"] for s in data["streams"])
        queue = max(s["queue_peak"] for s in data["streams"])
        rows.append(
            [
                str(n),
                f"{data['ring_util'] * 100:.0f}%",
                f"{worst * 100:.1f}%",
                f"{latency / MS:.1f} ms",
                str(queue),
            ]
        )
    emit(
        "multi_stream",
        format_table(
            "Extension: concurrent 166 KB/s CTMSP streams on one 4 Mbit ring",
            ["streams", "ring util", "worst delivery", "worst latency", "tx queue peak"],
            rows,
        ),
    )

    # One and two streams fit: full delivery, bounded latency.
    for n in (1, 2):
        for s in results[n]["streams"]:
            assert s["fraction"] > 0.99, (n, s)
            assert s["worst_latency_ns"] < 60 * MS
    # Two streams already use most of the wire.
    assert results[2]["ring_util"] > 0.60
    # Three streams exceed the ring: queues grow without bound and delivery
    # or latency collapses for at least one stream.
    three = results[3]["streams"]
    assert any(
        s["fraction"] < 0.97 or s["worst_latency_ns"] > 150 * MS or s["queue_peak"] > 20
        for s in three
    )
