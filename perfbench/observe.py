"""Observe-only hooks that read the simulator's public counters.

Each simulator workload calls one public entry point (``run_scenario``,
``run_fleet`` or ``run_failover_campaign``) that assembles its testbeds
internally and returns only summaries.  :class:`TestbedObserver` patches ``Testbed.run`` and the
constructors of a few counter-holding classes for the length of one
batch, and snapshots each testbed's counters the moment its ``run``
returns.  It schedules nothing and keeps no object alive past
that run, so the simulation is unchanged; the point digests check this.
Points run one after another, so every tracked object built after a
testbed and before its ``run`` returns belongs to that testbed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.session import CTMSSession
from repro.experiments.testbed import Testbed
from repro.faults.injectors import FaultInjector
from repro.measure.pcat import PcatTimestamper

#: Classes whose instances carry counters the testbed cannot reach.
TRACKED = (CTMSSession, FaultInjector, PcatTimestamper)


def percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class PointCounters:
    """One testbed's counters, read when its run returned."""

    events: int = 0
    sim_ns: int = 0
    irqs: int = 0
    cpus: int = 0
    cpu_busy_ns: float = 0.0
    ring_frames: int = 0
    ring_busy_ns: int = 0
    purges: int = 0
    token_wait_ns: int = 0
    cpu_copies: int = 0
    cpu_copy_bytes: int = 0
    mbuf_allocs: int = 0
    tx_queue_peak: int = 0
    rx_dropped: int = 0
    setup_attempts: int = 0
    samples: int = 0
    faults_fired: int = 0
    packets_built: int = 0
    delivered: int = 0
    lost: int = 0
    #: Per sink stream: (host, device, delivered, lost, p50 ns, p99 ns).
    streams: list[tuple] = field(default_factory=list)
    #: Source-to-sink latency of every delivered packet, ascending.
    latencies_ns: list[int] = field(default_factory=list)

    def digest(self) -> str:
        """What a perf-only change must leave identical."""
        blob = json.dumps([self.events, self.sim_ns, self.streams])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def read_counters(bed: Testbed, tracked: list[Any]) -> PointCounters:
    """Snapshot ``bed`` and the tracked objects built for it."""
    now = bed.sim.now
    ring = bed.ring
    c = PointCounters(
        events=bed.sim.stats_events,
        sim_ns=now,
        ring_frames=ring.stats_frames_sent,
        ring_busy_ns=ring.stats_busy_ns,
        purges=ring.stats_purges,
        token_wait_ns=sum(ring.stats_token_wait_ns.values()),
    )
    latencies: list[int] = []
    for host in bed.hosts.values():
        cpu = host.machine.cpu
        c.cpus += 1
        c.irqs += cpu.stats_irq_count
        c.cpu_busy_ns += cpu.utilization(now) * now
        c.cpu_copies += host.kernel.ledger.cpu_copy_count()
        c.cpu_copy_bytes += host.kernel.ledger.cpu_bytes()
        c.mbuf_allocs += host.kernel.mbufs.stats_allocs
        c.tx_queue_peak = max(c.tx_queue_peak, host.tr_driver.stats_tx_queue_peak)
        c.rx_dropped += host.tr_driver.stats_rx_dropped_no_mbufs
        for device, driver in host.vca_drivers.items():
            c.packets_built += driver.stats_packets_built
            tracker = driver.tracker
            if not (tracker.delivered or tracker.lost_packets):
                continue
            ordered = sorted(driver.stream_stats.latencies_ns)
            latencies.extend(ordered)
            c.delivered += tracker.delivered
            c.lost += tracker.lost_packets
            c.streams.append(
                (
                    host.name,
                    device,
                    tracker.delivered,
                    tracker.lost_packets,
                    percentile(ordered, 0.5),
                    percentile(ordered, 0.99),
                )
            )
    c.latencies_ns = sorted(latencies)
    for obj in tracked:
        if isinstance(obj, CTMSSession):
            c.setup_attempts += obj.setup_attempts
        elif isinstance(obj, FaultInjector):
            c.faults_fired += obj.stats_fired
        elif isinstance(obj, PcatTimestamper):
            c.samples += obj.stats_records
    return c


class TestbedObserver:
    """Context manager collecting one :class:`PointCounters` per testbed run.

    ``overhead_s`` is the host time spent reading counters, which the
    workload subtracts from its timed region.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self) -> None:
        self.points: list[PointCounters] = []
        self.overhead_s = 0.0
        self._tracked: list[Any] = []
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "TestbedObserver":
        original_run = Testbed.run

        def run(bed: Testbed, duration_ns: int) -> None:
            original_run(bed, duration_ns)
            started = time.perf_counter()
            self.points.append(read_counters(bed, self._tracked))
            self._tracked = []
            self.overhead_s += time.perf_counter() - started

        def tracking(original_init: Any) -> Any:
            def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
                original_init(obj, *args, **kwargs)
                self._tracked.append(obj)

            return __init__

        self._patch(Testbed, "run", run)
        for cls in TRACKED:
            self._patch(cls, "__init__", tracking(cls.__init__))
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []
        self._tracked = []

    def _patch(self, cls: type, name: str, replacement: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)
