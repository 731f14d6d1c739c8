#!/usr/bin/env python3
"""Reproduce the paper's measurement campaign on your own terminal.

Runs Test Case A (private quiet ring) and Test Case B (loaded public ring)
with the PC/AT parallel-port timestamper cabled to the paper's four
measurement points, and renders the seven histograms of Section 5.3 --
including Figure 5-2's bimodal transmit-path histogram and Figure 5-3/5-4's
transmitter-to-receiver distributions.

The observability layer (PR 3) rides along: a DataPathTracer fills a
per-layer metrics registry during Test Case A, and a flight recorder
snapshots the end-of-run telemetry so the campaign's verdicts come with
the distributions behind them.

Run:  python examples/measurement_campaign.py          (about a minute)
"""

from repro.experiments.claims import FIG_5_2, FIG_5_3
from repro.experiments.claims import HISTOGRAMS_A, HISTOGRAMS_B
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_a, test_case_b
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import DataPathTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecorder
from repro.sim.units import SEC

recorder = SpanRecorder()
registry = MetricsRegistry()
tracer = DataPathTracer(recorder, registry)

print("Running Test Case A (private network, no load, stand-alone hosts)...")
result_a = run_scenario(test_case_a(duration_ns=30 * SEC, seed=1), tracer=tracer)
print("Running Test Case B (public network, normal load, multiprocessing)...")
result_b = run_scenario(test_case_b(duration_ns=30 * SEC, seed=1))

print()
print(HISTOGRAMS_A.report(result_a))
print()
print(HISTOGRAMS_B.report(result_b))
print()
print(FIG_5_3.report(result_a))
print()
print(FIG_5_2.report(result_b))
print()
print("Delivery check:")
for name, result in (("A", result_a), ("B", result_b)):
    t = result.tracker
    print(f"  Test Case {name}: {result.stream.delivered} packets, "
          f"{t.lost_packets} lost, {t.duplicates} duplicates")

print()
print("Per-layer telemetry for Test Case A (the observability registry):")
print(registry.render_tables())

# An end-of-run flight snapshot: the same record a chaos campaign would
# freeze at the first invariant violation, taken here at campaign end.
flight = FlightRecorder(recorder=recorder, metrics=registry, tail=8)
flight.snapshot(
    "campaign-complete",
    result_a.testbed.sim.now,
    {"delivered": result_a.stream.delivered},
)
print()
print("Flight-recorder output:")
print(flight.render())
