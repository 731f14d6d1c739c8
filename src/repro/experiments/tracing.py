"""Traced end-to-end runs: the observability layer's standard experiment.

One :func:`run_traced` call assembles the two-host testbed of a chaos
profile (``stock`` or ``ctmsp``), attaches the full observability stack --
span tracer on every data-path layer, metrics registry, playout model on
the sink -- runs a seeded stream, and returns everything the exporters
need.  :func:`trace_stock_vs_ctmsp` runs both profiles against the same
seed so one Chrome-trace file shows the two configurations side by side,
the Section 5.3 comparison as a timeline instead of a table.

Because the instrumentation rides in hook points only (probes, listeners,
monitors, the delivery handle), a traced run's event calendar is identical
to an untraced one -- the overhead-guard test pins this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.presentation import PresentationMachine
from repro.core.session import CTMSSession
from repro.experiments.chaos import RX_HOST, TX_HOST, profile_host_config
from repro.experiments.testbed import Host, Testbed
from repro.hardware import calibration
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import DataPathTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecorder
from repro.sim.units import MS, SEC

#: Playout model sizing: prefill of 4 packets, capacity of 16, against the
#: stream's nominal byte rate.
PLAYOUT_RATE_BYTES_PER_SEC = calibration.CTMSP_STREAM_RATE_BYTES_PER_SEC
PLAYOUT_PREFILL_BYTES = 4 * calibration.CTMSP_PACKET_BYTES
PLAYOUT_CAPACITY_BYTES = 16 * calibration.CTMSP_PACKET_BYTES
PLAYOUT_SKIP_AHEAD_NS = 200 * MS


@dataclass
class TracedRun:
    """One profile's run with the observability stack attached."""

    profile: str
    seed: int
    duration_ns: int
    recorder: SpanRecorder
    metrics: MetricsRegistry
    tracer: DataPathTracer
    flight: FlightRecorder
    testbed: Testbed
    transmitter: Host
    receiver: Host
    session: CTMSSession
    presentation: PresentationMachine


def run_traced(
    profile: str = "ctmsp",
    seed: int = 7,
    duration_ns: int = 2 * SEC,
) -> TracedRun:
    """Run one profile with tracing, metrics and a flight recorder on."""
    bed = Testbed(seed=seed)
    recorder = SpanRecorder(bed.sim)
    metrics = MetricsRegistry()
    tracer = DataPathTracer(recorder, metrics)
    flight = FlightRecorder(recorder=recorder, metrics=metrics)
    bed.flight_recorder = flight

    tx = bed.add_host(profile_host_config(profile, TX_HOST))
    rx = bed.add_host(profile_host_config(profile, RX_HOST))

    tracer.attach_transmitter(tx)
    tracer.attach_ring(bed.ring)
    # Receiver attachment wraps the delivery handle; the playout model then
    # wraps on top, so its buffer fill happens before the tracer's playout
    # projection reads the level.  Both must precede session establishment.
    tracer.attach_receiver(rx)
    presentation = PresentationMachine(
        bed.sim,
        PLAYOUT_RATE_BYTES_PER_SEC,
        prefill_bytes=PLAYOUT_PREFILL_BYTES,
        capacity_bytes=PLAYOUT_CAPACITY_BYTES,
        skip_ahead_after_ns=PLAYOUT_SKIP_AHEAD_NS,
    )
    presentation.attach_to_vca(rx.vca_driver)
    tracer.attach_playout(presentation, rx.name)

    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(duration_ns)

    tracer.finalize(duration_ns, session=session, testbed=bed)
    return TracedRun(
        profile=profile,
        seed=seed,
        duration_ns=duration_ns,
        recorder=recorder,
        metrics=metrics,
        tracer=tracer,
        flight=flight,
        testbed=bed,
        transmitter=tx,
        receiver=rx,
        session=session,
        presentation=presentation,
    )


def trace_stock_vs_ctmsp(
    seed: int = 7, duration_ns: int = 2 * SEC
) -> list[TracedRun]:
    """Both profiles against the same seed, for one side-by-side trace."""
    return [
        run_traced(profile, seed=seed, duration_ns=duration_ns)
        for profile in ("stock", "ctmsp")
    ]
