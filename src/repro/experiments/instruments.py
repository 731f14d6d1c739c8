"""Section 5.2's measurement tools, characterized on one loaded host: the
logic analyzer, the PC/AT timestamper and the RT/PC pseudo-driver all
watch the same VCA interrupt line and handler, next to the simulator's
exact times.  ``repro.experiments.claims`` runs this for its table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.testbed import HostConfig, Testbed
from repro.hardware.cpu import Exec
from repro.hardware.parallel_port import ParallelPort
from repro.measure.logic_analyzer import LogicAnalyzer
from repro.measure.pcat import PcatTimestamper
from repro.measure.pseudo_driver import PseudoDriverTracer
from repro.sim.units import MS, SEC, US


@dataclass
class ToolReadings:
    """What each tool saw of the 12 ms VCA interrupt source."""

    #: Logic analyzer: worst deviation of the IRQ period from 12 ms.
    deviation_ns: int
    #: Logic analyzer: IRQ edge to handler entry, per interrupt.
    entry_latencies: list[int]
    #: PC/AT timestamper: how far its intervals fall below / above 12 ms.
    spread_lo_ns: int
    spread_hi_ns: int
    #: Exact handler-entry times, and the pseudo-driver's stamps of them.
    entries: list[int]
    stamps: list[int]


def run_tool_characterization(
    duration_ns: int = 30 * SEC, seed: int = 9
) -> ToolReadings:
    """All three tools on a multiprogramming host on a lightly loaded ring."""
    bed = Testbed(seed=seed, mac_utilization=0.004)
    host = bed.add_host(HostConfig(name="probe-host", multiprogramming=True))
    sim = bed.sim

    # 1. Logic analyzer straight on the IRQ line.
    analyzer = LogicAnalyzer(depth=8192)
    analyzer.attach(host.vca_adapter.irq_listeners)

    # 2. PC/AT timestamper on the same IRQ line.
    pcat = PcatTimestamper(sim, bed.rng)
    pcat.start()
    port = ParallelPort(sim, "irq-line")
    pcat.connect(0, port)
    count = {"n": 0}

    def pulse(_t):
        port.emit(count["n"] & 0x7F)
        count["n"] += 1

    host.vca_adapter.irq_listeners.append(pulse)

    # 3. Pseudo-driver tracer on the handler entry, whose recording
    # procedure runs first; then the exact entry time, as the analyzer's
    # second probe on a handler-owned signal would record it.
    tracer = PseudoDriverTracer(sim)
    probe = tracer.probe("entry")
    entries = []

    def handler():
        yield Exec(probe(count["n"]))
        entries.append(sim.now)
        yield Exec(50 * US)

    host.vca_adapter.attach_handler(handler)

    host.vca_adapter.start()
    bed.run(duration_ns)
    times = pcat.channel_times(0)
    intervals = [b - a for a, b in zip(times, times[1:])]
    return ToolReadings(
        deviation_ns=analyzer.max_deviation_from(12 * MS),
        entry_latencies=[e - p for p, e in zip(analyzer.edges, entries)],
        spread_lo_ns=12 * MS - min(intervals),
        spread_hi_ns=max(intervals) - 12 * MS,
        entries=entries,
        stamps=tracer.times("entry"),
    )
