"""Continuous stream-invariant monitoring (the defense side of chaos).

:class:`StreamInvariantMonitor` watches one CTMS session the way the
paper's central control point watched its campaign (Section 5.2.1): it
checks a set of configurable invariants on a periodic tick and, like
:class:`~repro.experiments.controller.CampaignController`, freezes a
snapshot of every relevant counter the first time each invariant breaks.

Invariants (all optional):

* ``no_reordering`` -- the ring preserves order, so the sink must never
  classify an out-of-order CTMSP packet;
* ``max_loss_fraction`` -- the stream's loss stays below the level the
  paper decided it could "safely ignore";
* ``max_interarrival_ns`` -- no delivery gap longer than the playout
  deadline (the paper's 120-130 ms insertion outliers are the calibration
  point);
* ``min_throughput_bytes_per_sec`` -- checked at :meth:`finish`, once the
  whole window is observable;
* playout never underruns -- when a
  :class:`~repro.core.presentation.PresentationMachine` is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.units import MS, format_time

#: Invariant names (keys of first-violation snapshots).
NO_REORDERING = "no_reordering"
LOSS_FRACTION = "loss_fraction"
INTER_ARRIVAL = "inter_arrival"
THROUGHPUT = "throughput"
PLAYOUT_UNDERRUN = "playout_underrun"
FAILOVER_GAP = "failover_gap"
REESTABLISH_STORM = "reestablish_storm"


@dataclass(frozen=True)
class Violation:
    """One invariant broken, with state frozen at first detection."""

    invariant: str
    detail: str
    at_ns: int
    snapshot: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"VIOLATION at {format_time(self.at_ns)}: {self.invariant}",
            f"  {self.detail}",
        ]
        for key, value in self.snapshot.items():
            lines.append(f"    {key} = {value}")
        return "\n".join(lines)


class StreamInvariantMonitor:
    """Watches one session's sink-side invariants while the clock runs.

    Parameters
    ----------
    testbed, session:
        The laboratory and the stream under observation.
    check_period_ns:
        Tick between invariant evaluations (default: two media periods).
    grace_ns:
        No checks before this instant -- establishment (now a real
        handshake with retries) must be allowed to finish.
    min_packets:
        Loss/ordering checks wait for this many deliveries so a single
        early packet cannot dominate the fraction.
    failover_source:
        Duck-typed handle from the session control plane (a managed-session
        record) exposing ``failover_windows()`` -- a list of
        ``(gap_start_ns, resumed_at_ns | None)`` delivery-gap windows, one
        per failover -- and ``failover_records()`` with per-failover
        ``establish_rounds``.  When present, inter-arrival gaps covered by a
        failover window are exempt from ``max_interarrival_ns`` (the glitch
        is judged by its own budget instead) and two extra invariants arm:
        ``failover_gap`` (each window must close within
        ``failover_gap_budget_ns``) and ``reestablish_storm`` (no failover
        may take more than ``max_failover_rounds`` establish rounds -- the
        jittered-backoff contract that one crash causes at most one
        re-establish storm).
    """

    def __init__(
        self,
        testbed,
        session,
        presentation=None,
        no_reordering: bool = True,
        max_loss_fraction: Optional[float] = 0.01,
        loss_grace_packets: int = 10,
        max_interarrival_ns: Optional[int] = 150 * MS,
        min_throughput_bytes_per_sec: Optional[float] = None,
        check_period_ns: int = 24 * MS,
        grace_ns: int = 250 * MS,
        min_packets: int = 20,
        failover_source=None,
        failover_gap_budget_ns: Optional[int] = None,
        max_failover_rounds: int = 1,
    ) -> None:
        self.testbed = testbed
        self.sim = testbed.sim
        self.session = session
        self.presentation = presentation
        self.no_reordering = no_reordering
        self.max_loss_fraction = max_loss_fraction
        self.loss_grace_packets = loss_grace_packets
        self.max_interarrival_ns = max_interarrival_ns
        self.min_throughput_bytes_per_sec = min_throughput_bytes_per_sec
        self.check_period_ns = check_period_ns
        self.grace_ns = grace_ns
        self.min_packets = min_packets
        self.failover_source = failover_source
        self.failover_gap_budget_ns = failover_gap_budget_ns
        self.max_failover_rounds = max_failover_rounds
        self.violations: list[Violation] = []
        self._seen: set[str] = set()
        self._finished = False
        self._started = False
        # Running worst inter-arrival gap: the arrival list it scanned, how
        # many of its arrivals are folded in, and the failover windows it
        # was judged under (see _worst_gap).
        self._gap_arrivals: Optional[list[int]] = None
        self._gap_folded = 0
        self._gap_worst = 0
        self._gap_windows: tuple = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "StreamInvariantMonitor":
        """Begin periodic checking (idempotent)."""
        if not self._started:
            self._started = True
            self.sim.schedule_fast(
                max(self.grace_ns, self.check_period_ns), self._tick
            )
        return self

    def _tick(self) -> None:
        if self._finished:
            return
        self.check_now()
        self.sim.schedule_fast(self.check_period_ns, self._tick)

    def finish(self) -> list[Violation]:
        """End-of-run checks (throughput); returns all violations."""
        self._finished = True
        self.check_now()
        stats = self.session.stats
        if (
            self.min_throughput_bytes_per_sec is not None
            and stats.delivered >= self.min_packets
        ):
            achieved = stats.throughput_bytes_per_sec()
            if achieved < self.min_throughput_bytes_per_sec:
                self._trip(
                    THROUGHPUT,
                    f"delivered {achieved / 1000:.1f} KB/s, needed "
                    f"{self.min_throughput_bytes_per_sec / 1000:.1f} KB/s",
                )
        return self.violations

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Evaluate every live invariant against the current counters."""
        tracker = self.session.sink_tracker
        stats = self.session.stats
        if self.no_reordering and tracker.reordered > 0:
            self._trip(
                NO_REORDERING,
                f"{tracker.reordered} packet(s) classified out of order",
            )
        if (
            self.max_loss_fraction is not None
            and tracker.delivered >= self.min_packets
            # Absolute floor before the fraction means anything: the paper
            # "decided that we could safely ignore" single lost packets
            # (one per Ring Purge), and a campaign schedules many purges.
            # Against a small early denominator those tolerated losses
            # would read as fractional violations.
            and tracker.lost_packets > self.loss_grace_packets
        ):
            fraction = tracker.loss_fraction()
            if fraction > self.max_loss_fraction:
                self._trip(
                    LOSS_FRACTION,
                    f"loss fraction {fraction * 100:.2f}% exceeds "
                    f"{self.max_loss_fraction * 100:.2f}%",
                )
        windows = (
            tuple(self.failover_source.failover_windows())
            if self.failover_source is not None
            else ()
        )
        if self.max_interarrival_ns is not None and stats.delivered >= 2:
            worst = self._worst_gap(stats.arrival_times, windows)
            # A gap still in progress counts too -- the watchdog must fire
            # while the stream is stalled, not after it recovers.  An open
            # failover window exempts the live gap: that stall is being
            # judged by the failover-gap budget instead.
            if stats.last_arrival is not None and not any(
                end is None for _, end in windows
            ):
                worst = max(worst, self.sim.now - stats.last_arrival)
            if worst > self.max_interarrival_ns:
                self._trip(
                    INTER_ARRIVAL,
                    f"inter-arrival gap {format_time(worst)} exceeds "
                    f"{format_time(self.max_interarrival_ns)}",
                )
        if self.failover_gap_budget_ns is not None:
            for start, end in windows:
                gap = (end if end is not None else self.sim.now) - start
                if gap > self.failover_gap_budget_ns:
                    state = "closed at" if end is not None else "still open,"
                    self._trip(
                        FAILOVER_GAP,
                        f"failover delivery gap {state} {format_time(gap)} "
                        f"exceeds budget "
                        f"{format_time(self.failover_gap_budget_ns)}",
                    )
                    break
        if self.failover_source is not None:
            for record in self.failover_source.failover_records():
                rounds = record.establish_rounds
                if rounds > self.max_failover_rounds:
                    self._trip(
                        REESTABLISH_STORM,
                        f"failover took {rounds} establish round(s), "
                        f"budget {self.max_failover_rounds} (jittered "
                        "backoff should make one round suffice)",
                    )
                    break
        if self.presentation is not None and self.presentation.glitch_count:
            self._trip(
                PLAYOUT_UNDERRUN,
                f"playout buffer underran {self.presentation.glitch_count} "
                "time(s)",
            )

    def _worst_gap(self, arrivals: list[int], windows: tuple) -> int:
        """Worst inter-arrival gap whose interval no failover window covers.

        A pair of consecutive arrivals ``(a, b)`` is exempt when some
        window overlaps the open interval between them -- that silence is
        the failover glitch, bounded by its own budget, not a stream
        stall the playout deadline should punish.  No windows, no
        exemptions.

        Incremental: each call folds in only the arrivals since the last
        one, so a tick costs O(new arrivals).  A different windows tuple
        (a new failover, or an open window closing) can exempt past gaps,
        and a different or shrunken arrival list invalidates the fold; both
        rescan from the first arrival.
        """
        if (
            arrivals is not self._gap_arrivals
            or len(arrivals) < self._gap_folded
            or windows != self._gap_windows
        ):
            self._gap_arrivals = arrivals
            self._gap_windows = windows
            self._gap_folded = 0
            self._gap_worst = 0
        worst = self._gap_worst
        n = len(arrivals)
        i = max(self._gap_folded, 1)
        if i < n:
            a = arrivals[i - 1]
            for b in arrivals[i:]:
                if b - a > worst and not any(
                    start < b and (end is None or end > a)
                    for start, end in windows
                ):
                    worst = b - a
                a = b
            self._gap_worst = worst
        self._gap_folded = n
        return worst

    # ------------------------------------------------------------------
    # first-violation snapshots
    # ------------------------------------------------------------------
    def _trip(self, invariant: str, detail: str) -> None:
        if invariant in self._seen:
            return
        self._seen.add(invariant)
        snapshot = self._snapshot()
        self.violations.append(
            Violation(
                invariant=invariant,
                detail=detail,
                at_ns=self.sim.now,
                snapshot=snapshot,
            )
        )
        # Duck-typed hook into the observability flight recorder, when the
        # testbed carries one -- faults never imports repro.obs.
        flight = getattr(self.testbed, "flight_recorder", None)
        if flight is not None:
            flight.snapshot(
                invariant,
                self.sim.now,
                {"detail": detail, **snapshot},
            )

    def _snapshot(self) -> dict[str, Any]:
        tracker = self.session.sink_tracker
        stats = self.session.stats
        ring = self.testbed.ring
        snap = {
            "delivered": tracker.delivered,
            "lost_packets": tracker.lost_packets,
            "gaps": tracker.gaps,
            "duplicates": tracker.duplicates,
            "reordered": tracker.reordered,
            "worst_gap_ns": stats.worst_gap_ns(),
            "ring_purges": ring.stats_purges,
            "ring_lost_to_purge": ring.stats_frames_lost_to_purge,
            "ring_lost_to_fault": ring.stats_frames_lost_to_fault,
            "ring_pending": ring.pending_count(),
        }
        if self.presentation is not None:
            snap["playout_glitches"] = self.presentation.glitch_count
            snap["playout_skips"] = self.presentation.skips
        if self.failover_source is not None:
            snap["failovers"] = len(self.failover_source.failover_records())
        return snap

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def ok(self) -> bool:
        return not self.violations

    def violated(self) -> list[str]:
        """Invariant names broken so far, in first-detection order."""
        return [v.invariant for v in self.violations]
