"""The session control plane: admission, overload shedding, failover.

The paper sizes *one* CTMS stream on *one* 4 Mbit ring; the production
question (ROADMAP scale-out item) is what sits between hundreds of
``establish()`` requests and a handful of replicated media servers.  This
module is that layer, and it is the **sanctioned home of every
control-plane policy decision** (ctms-lint CTMS304): admission verdicts,
shed-victim selection, and failover replica choice live here and nowhere
else, so experiments and drivers can only *ask* for a session, never
decide one.

Three cooperating mechanisms:

**Admission control** -- a :class:`BandwidthLedger` tracks committed
bandwidth per media server and per ring segment.  A CTMSP stream's wire
rate is its packet size every DSP period (~167 KB/s gross for the paper's
150 KB/s payload commitment); the ledger admits a request only while the
segment's committed rate stays under ``capacity * headroom`` and a live
server has both a free VCA source slot and server-side bandwidth.
Otherwise the request queues (bounded) or is rejected.  The deterministic
churn workload that drives this lives in :mod:`repro.workloads.churn`.

**Overload shedding** -- a periodic control tick measures ring utilization
over the previous window.  Above ``shed_high_watermark`` the plane pauses
one victim per tick, chosen quality-centrically: lowest priority first,
newest admission first within a priority -- never the oldest session.
Resumption is hysteretic: only after utilization has stayed below
``shed_low_watermark`` for ``shed_resume_hold_ticks`` consecutive ticks is
the highest-priority, oldest shed session re-established (resuming at the
sink tracker's high-water mark), so shedding cannot flap.

**Mid-stream failover** -- the watchdog half of the tick monitors each
streaming session's sink-side high-water mark.  When a session's delivery
stalls past ``stall_detect_ns``, its server is declared down and *every*
session sourced there begins failover: a replica is chosen (least
committed live server with a free slot), and the session re-establishes
against it after a jittered backoff -- the jitter spreads the re-establish
attempts so one crash causes at most one, bounded, storm
(:class:`~repro.faults.invariants.StreamInvariantMonitor`'s
``reestablish_storm`` invariant).  The new source resumes packet numbering
at :meth:`~repro.core.recovery.SequenceTracker.resume_point` and starts
its DSP timer on a rebased tick grid, so the sink sees one bounded
delivery gap (the ``failover_gap`` invariant) instead of a duplicate storm
or an interrupt burst.

Observability: the plane counts each outcome in its ``stats_*``
counters (read by :meth:`SessionControlPlane.snapshot`) and appends each
decision to ``decisions``, a list of ``(t_ns, event, fields)`` tuples in
emission order -- the policy audit trail.  The plane never reads either
back to decide anything.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.session import CTMSSession
from repro.hardware import calibration
from repro.sim.units import MS, SEC

# ----------------------------------------------------------------------
# vocabulary
# ----------------------------------------------------------------------

#: Admission verdicts.
ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"

#: Managed-session states.
PENDING = "pending"          # submitted, not yet decided
QUEUED = "queued"            # waiting for capacity
ESTABLISHING = "establishing"
STREAMING = "streaming"
SHED = "shed"                # paused by overload protection
FAILING_OVER = "failing-over"
STRANDED = "stranded"        # failover exhausted every replica
REJECTED = "rejected"
CLOSED = "closed"            # released by the client

#: Gross wire rate one CTMSP stream commits: a full information field
#: every DSP period.  The paper's 150 KB/s payload plus header framing.
def stream_gross_rate_bytes_per_sec(
    packet_bytes: int = calibration.CTMSP_PACKET_BYTES,
    period_ns: int = calibration.VCA_INTERRUPT_PERIOD,
) -> int:
    return round(packet_bytes * SEC / period_ns)


@dataclass
class ControlPlaneConfig:
    """Every knob of the control plane, in one inert record."""

    #: Gross bytes/sec one admitted session commits on the ring.
    session_rate_bytes_per_sec: int = field(
        default_factory=stream_gross_rate_bytes_per_sec
    )
    #: Raw ring-segment capacity (4 Mbit/s = 500 KB/s).
    ring_capacity_bytes_per_sec: int = 500_000
    #: Fraction of segment capacity the ledger may commit; the rest is
    #: headroom for MAC housekeeping, control frames, and purges.
    ring_commit_headroom: float = 0.85
    #: Bounded admission queue depth; beyond it requests are rejected.
    max_queue_depth: int = 8
    #: Control tick period (utilization sampling, watchdog, queue pump).
    tick_ns: int = 25 * MS
    #: Shed one victim per tick while measured utilization exceeds this.
    shed_high_watermark: float = 0.92
    #: Resume shed sessions only below this (hysteresis floor)...
    shed_low_watermark: float = 0.60
    #: ...and only after this many consecutive ticks below the floor.
    shed_resume_hold_ticks: int = 3
    #: Enable the shedding half of the tick.
    shed_enabled: bool = True
    #: Declare a streaming session stalled after this much sink silence.
    #: Must beat the playout deadline the invariant monitor enforces:
    #: detection latency is at most ``stall_detect + 2 * tick`` (~100 ms),
    #: comfortably inside the 150 ms inter-arrival budget, yet four media
    #: periods of tolerance against ordinary ring contention.
    stall_detect_ns: int = 50 * MS
    #: Enable the failover watchdog.
    failover_enabled: bool = True
    #: Base backoff before a failover re-establish attempt...
    failover_backoff_ns: int = 20 * MS
    #: ...plus a uniform jitter in [0, this) drawn per session, so one
    #: crash's victims spread their re-establishes instead of storming.
    failover_jitter_ns: int = 30 * MS
    #: Give up on a session after this many failover rounds.
    max_failover_rounds: int = 2

    def ring_budget_bytes_per_sec(self) -> int:
        return round(
            self.ring_capacity_bytes_per_sec * self.ring_commit_headroom
        )


# ----------------------------------------------------------------------
# the bandwidth ledger
# ----------------------------------------------------------------------


class BandwidthLedger:
    """Committed-bandwidth accounting per server and per ring segment.

    The ledger is pure arithmetic -- no clocks, no RNG -- so admission
    decisions are a deterministic function of the commitments it holds.
    Ring commitments and server commitments are tracked separately
    because failover moves a session between servers *without* touching
    its ring reservation (the stream keeps flowing on the same segment).
    """

    def __init__(self, ring_budget_bytes_per_sec: int) -> None:
        self.ring_budget_bytes_per_sec = ring_budget_bytes_per_sec
        self.ring_committed_bytes_per_sec = 0
        #: server -> {"budget": int, "committed": int, "free_slots": [str]}
        self._servers: dict[str, dict[str, Any]] = {}

    def add_server(
        self, name: str, slot_devices: list[str], budget_bytes_per_sec: int
    ) -> None:
        if name in self._servers:
            raise ValueError(f"duplicate server {name!r}")
        self._servers[name] = {
            "budget": budget_bytes_per_sec,
            "committed": 0,
            "free_slots": sorted(slot_devices),
        }

    def servers(self) -> list[str]:
        return sorted(self._servers)

    def server_committed(self, name: str) -> int:
        return self._servers[name]["committed"]

    def server_has_room(self, name: str, rate_bytes_per_sec: int) -> bool:
        entry = self._servers[name]
        return bool(entry["free_slots"]) and (
            entry["committed"] + rate_bytes_per_sec <= entry["budget"]
        )

    def ring_has_room(self, rate_bytes_per_sec: int) -> bool:
        return (
            self.ring_committed_bytes_per_sec + rate_bytes_per_sec
            <= self.ring_budget_bytes_per_sec
        )

    def commit(
        self, server: str, rate_bytes_per_sec: int, charge_ring: bool = True
    ) -> str:
        """Reserve one slot + bandwidth on ``server``; returns the slot."""
        entry = self._servers[server]
        if not entry["free_slots"]:
            raise RuntimeError(f"no free slot on {server}")
        slot = entry["free_slots"].pop(0)
        entry["committed"] += rate_bytes_per_sec
        if charge_ring:
            self.ring_committed_bytes_per_sec += rate_bytes_per_sec
        return slot

    def release(
        self,
        server: str,
        slot: str,
        rate_bytes_per_sec: int,
        release_ring: bool = True,
    ) -> None:
        entry = self._servers[server]
        entry["free_slots"].append(slot)
        entry["free_slots"].sort()
        entry["committed"] = max(0, entry["committed"] - rate_bytes_per_sec)
        if release_ring:
            self.ring_committed_bytes_per_sec = max(
                0, self.ring_committed_bytes_per_sec - rate_bytes_per_sec
            )

    def release_ring_only(self, rate_bytes_per_sec: int) -> None:
        """Drop a ring reservation whose server side is already released
        (a stranded failover kept the segment committed while it retried)."""
        self.ring_committed_bytes_per_sec = max(
            0, self.ring_committed_bytes_per_sec - rate_bytes_per_sec
        )


# ----------------------------------------------------------------------
# managed sessions
# ----------------------------------------------------------------------


@dataclass
class FailoverRecord:
    """One failover of one session, from detection to resumed delivery."""

    control_id: int
    from_server: str
    detected_at_ns: int
    #: Last sink arrival before the stall -- the delivery gap's left edge.
    gap_start_ns: int
    to_server: str = ""
    #: First sink arrival after re-establishment (closes the gap window).
    resumed_at_ns: Optional[int] = None
    #: ``CTMSSession.establish()`` invocations this failover needed.
    establish_rounds: int = 0
    #: The jittered backoff this session waited before re-establishing.
    backoff_ns: int = 0
    #: Packet number the replica resumed at (sink high-water mark).
    resume_from: int = 0


def first_arrival_after(arrivals: list[int], t_ns: int) -> Optional[int]:
    """The first sink arrival strictly after ``t_ns``, or ``None`` if none has come yet.

    This is what closes a failover window: the first arrival after
    detection ends the delivery gap.  Arrivals never decrease, so a
    bisect finds it.
    """
    i = bisect.bisect_right(arrivals, t_ns)
    return arrivals[i] if i < len(arrivals) else None


@dataclass
class ManagedSession:
    """One client request under control-plane management.

    The underlying :class:`CTMSSession` object is *replaced* on failover,
    but the sink-side statistics and tracker live on the client's VCA
    driver, so :attr:`stats`/:attr:`sink_tracker` stay continuous across
    server moves -- which is exactly what the invariant monitor watches.
    """

    control_id: int
    client: str
    priority: int
    rate_bytes_per_sec: int
    submitted_at_ns: int
    state: str = PENDING
    decision: str = ""
    decision_reason: str = ""
    server: Optional[str] = None
    slot: Optional[str] = None
    session: Optional[CTMSSession] = None
    admitted_at_ns: Optional[int] = None
    closed_at_ns: Optional[int] = None
    sheds: int = 0
    failovers: list[FailoverRecord] = field(default_factory=list)
    #: Watchdog bookkeeping: last observed sink high-water mark and when
    #: it last advanced.
    _last_progress: int = -1
    _progress_at_ns: int = 0

    @property
    def stats(self):
        assert self.session is not None
        return self.session.stats

    @property
    def sink_tracker(self):
        assert self.session is not None
        return self.session.sink_tracker

    # Duck-typed interface consumed by StreamInvariantMonitor.
    def failover_windows(self) -> list[tuple[int, Optional[int]]]:
        """Delivery-gap windows, ends derived from arrival evidence.

        ``resumed_at_ns`` is stamped lazily (the control plane only walks
        arrivals at ``finish()``), so a mid-run reader computes the close
        itself: the first arrival after detection ends the window.  This
        keeps periodic invariant checks judging the *actual* glitch, not
        the bookkeeping lag.
        """
        arrivals = self.session.stats.arrival_times if self.session else []
        windows: list[tuple[int, Optional[int]]] = []
        for r in self.failovers:
            end = r.resumed_at_ns
            if end is None:
                end = first_arrival_after(arrivals, r.detected_at_ns)
            windows.append((r.gap_start_ns, end))
        return windows

    def failover_records(self) -> list[FailoverRecord]:
        return list(self.failovers)

    def live(self) -> bool:
        """Counted against ledgers/queues (admitted or waiting)."""
        return self.state in (
            QUEUED, ESTABLISHING, STREAMING, SHED, FAILING_OVER
        )


# ----------------------------------------------------------------------
# the control plane
# ----------------------------------------------------------------------


class SessionControlPlane:
    """Admission, shedding, and failover for one testbed's sessions.

    Determinism contract: all scheduling uses integer-ns delays on the
    testbed's simulator; the only randomness is the failover jitter,
    drawn from the named ``"control-plane"`` RNG stream in a fixed order
    (sessions are always iterated in submission order).
    """

    def __init__(
        self,
        testbed,
        config: Optional[ControlPlaneConfig] = None,
    ) -> None:
        self.testbed = testbed
        self.sim = testbed.sim
        self.config = config or ControlPlaneConfig()
        self.ledger = BandwidthLedger(self.config.ring_budget_bytes_per_sec())
        self._rng = testbed.rng.get("control-plane")
        self._ids = itertools.count(1)
        #: Every submission ever, in submission order (the deterministic
        #: iteration order for ticks and reports).
        self.sessions: list[ManagedSession] = []
        self._queue: list[ManagedSession] = []
        self._down: set[str] = set()
        self._ticking = False
        self._stopped = False
        # utilization sampling state: (sampled_at_ns, ring busy_ns then)
        self._busy_sample: tuple[int, int] = (0, 0)
        self.measured_utilization = 0.0
        self._below_low_ticks = 0
        # --- statistics ---
        self.stats_submitted = 0
        self.stats_admitted = 0
        self.stats_queued = 0
        self.stats_rejected = 0
        self.stats_shed = 0
        self.stats_resumed = 0
        self.stats_failovers = 0
        self.stats_stranded = 0
        #: Every decision in emission order: ``(t_ns, event, fields)``.
        self.decisions: list[tuple[int, str, dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_server(
        self,
        name: str,
        slots: int = 1,
        budget_bytes_per_sec: Optional[int] = None,
    ) -> None:
        """Declare a media server with ``slots`` VCA source devices."""
        if name not in self.testbed.hosts:
            raise ValueError(f"unknown host {name!r}")
        if budget_bytes_per_sec is None:
            budget_bytes_per_sec = (
                slots * self.config.session_rate_bytes_per_sec
            )
        devices = [f"vca{i}" for i in range(slots)]
        self.ledger.add_server(name, devices, budget_bytes_per_sec)

    def start(self) -> "SessionControlPlane":
        """Begin the periodic control tick (idempotent)."""
        if not self._ticking:
            self._ticking = True
            self._busy_sample = (self.sim.now, self.testbed.ring.stats_busy_ns)
            self.sim.schedule(self.config.tick_ns, self._tick)
        return self

    def stop(self) -> None:
        """Stop ticking (end of campaign)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        client: str,
        priority: int = 0,
        rate_bytes_per_sec: Optional[int] = None,
    ) -> ManagedSession:
        """One ``establish()`` request from ``client``; decided immediately.

        Returns the managed-session record; its ``state`` tells the caller
        whether it was admitted (``establishing``), ``queued``, or
        ``rejected``.
        """
        if client not in self.testbed.hosts:
            raise ValueError(f"unknown client host {client!r}")
        ms = ManagedSession(
            control_id=next(self._ids),
            client=client,
            priority=priority,
            rate_bytes_per_sec=(
                rate_bytes_per_sec
                if rate_bytes_per_sec is not None
                else self.config.session_rate_bytes_per_sec
            ),
            submitted_at_ns=self.sim.now,
        )
        self.sessions.append(ms)
        self.stats_submitted += 1
        verdict, reason = self.decide_admission(ms)
        ms.decision, ms.decision_reason = verdict, reason
        if verdict == ADMIT:
            self._admit(ms, reason)
        elif verdict == QUEUE:
            ms.state = QUEUED
            self._queue.append(ms)
            self.stats_queued += 1
            self._span("queue", session=ms.control_id, reason=reason)
        else:
            ms.state = REJECTED
            self.stats_rejected += 1
            self._span("reject", session=ms.control_id, reason=reason)
        return ms

    def release(self, ms: ManagedSession) -> None:
        """Client departure: stop the stream and free its commitments."""
        if not ms.live():
            return
        was_committed = ms.state in (
            ESTABLISHING, STREAMING, FAILING_OVER
        )
        if ms.session is not None and ms.state == STREAMING:
            ms.session.stop()
        if was_committed and ms.server is not None:
            self.ledger.release(
                ms.server, ms.slot, ms.rate_bytes_per_sec
            )
        elif ms.state == QUEUED:
            self._queue.remove(ms)
        ms.state = CLOSED
        ms.closed_at_ns = self.sim.now
        self._span("release", session=ms.control_id)
        self._pump_queue()

    def decide_admission(self, ms: ManagedSession) -> tuple[str, str]:
        """The admission policy: one verdict, one human-readable reason.

        Order of checks: a client may carry one stream at a time; the
        ring segment must have committed headroom; some live server must
        have a free slot and server bandwidth.  Capacity misses queue
        (bounded) rather than reject, because churn departures free
        capacity on a timescale clients will plausibly wait out.
        """
        for other in self.sessions:
            if other is not ms and other.client == ms.client and other.live():
                return REJECT, f"client {ms.client} already has a session"
        capacity_miss: Optional[str] = None
        if not self.ledger.ring_has_room(ms.rate_bytes_per_sec):
            capacity_miss = "ring segment at committed capacity"
        elif self.select_server(ms.rate_bytes_per_sec) is None:
            capacity_miss = "no live server with a free slot"
        if capacity_miss is not None:
            if len(self._queue) < self.config.max_queue_depth:
                return QUEUE, capacity_miss
            return REJECT, f"{capacity_miss}; queue full"
        server = self.select_server(ms.rate_bytes_per_sec)
        assert server is not None
        return ADMIT, server

    def select_server(self, rate_bytes_per_sec: int) -> Optional[str]:
        """Placement policy: least-committed live server with room.

        Ties break by name, so placement is deterministic and spreads
        load across replicas -- which is also what makes failover cheap:
        a crash strands only the sessions of one replica.
        """
        best: Optional[str] = None
        best_committed = -1
        for name in self.ledger.servers():
            if name in self._down:
                continue
            if not self.ledger.server_has_room(name, rate_bytes_per_sec):
                continue
            committed = self.ledger.server_committed(name)
            if best is None or committed < best_committed:
                best, best_committed = name, committed
        return best

    def _admit(self, ms: ManagedSession, server: str) -> None:
        ms.server = server
        ms.slot = self.ledger.commit(server, ms.rate_bytes_per_sec)
        ms.admitted_at_ns = self.sim.now
        ms.state = ESTABLISHING
        self.stats_admitted += 1
        self._span(
            "admit", session=ms.control_id, server=server, slot=ms.slot
        )
        self._establish(ms)

    def _pump_queue(self) -> None:
        """Admit queued requests (FIFO) while capacity allows."""
        admitted = True
        while admitted and self._queue:
            admitted = False
            head = self._queue[0]
            if not self.ledger.ring_has_room(head.rate_bytes_per_sec):
                break
            server = self.select_server(head.rate_bytes_per_sec)
            if server is None:
                break
            self._queue.pop(0)
            self._admit(head, server)
            admitted = True

    # ------------------------------------------------------------------
    # establishment (shared by admission, resume, and failover)
    # ------------------------------------------------------------------
    def _establish(
        self,
        ms: ManagedSession,
        resume_from: Optional[int] = None,
        record: Optional[FailoverRecord] = None,
    ) -> None:
        assert ms.server is not None and ms.slot is not None
        source = self.testbed.hosts[ms.server]
        sink = self.testbed.hosts[ms.client]
        align = resume_from is not None
        ms.session = CTMSSession(
            source.kernel,
            sink.kernel,
            source_vca_device=ms.slot,
            sink_vca_device="vca0",
            resume_from=resume_from,
            align_start=align,
        )
        if record is not None:
            record.establish_rounds += 1
        session = ms.session
        established = session.establish()
        established.add_callback(
            lambda event: self._establish_done(ms, session, record, event)
        )

    def _establish_done(
        self,
        ms: ManagedSession,
        session: CTMSSession,
        record: Optional[FailoverRecord],
        event,
    ) -> None:
        if session is not ms.session or ms.state not in (
            ESTABLISHING, FAILING_OVER
        ):
            return  # superseded (released or shed meanwhile)
        if event.ok:
            ms.state = STREAMING
            ms._last_progress = (
                session.sink_tracker.highest_seen
            )
            ms._progress_at_ns = self.sim.now
            self._span(
                "streaming", session=ms.control_id, server=ms.server
            )
            return
        # Establishment failed.  During failover, try the next replica;
        # otherwise give the capacity back and mark the session stranded.
        self._span(
            "establish-failed", session=ms.control_id, server=ms.server
        )
        if record is not None:
            # Give the failed replica's slot back before the next round --
            # the ring reservation is still held from before the crash.
            if ms.server is not None:
                self.ledger.release(
                    ms.server,
                    ms.slot,
                    ms.rate_bytes_per_sec,
                    release_ring=False,
                )
                ms.server = ms.slot = None
            self._retry_failover(ms, record)
        else:
            self._strand(ms)

    def _strand(self, ms: ManagedSession) -> None:
        if ms.server is not None:
            self.ledger.release(ms.server, ms.slot, ms.rate_bytes_per_sec)
            ms.server = ms.slot = None
        ms.state = STRANDED
        self.stats_stranded += 1
        self._span("strand", session=ms.control_id)
        self._pump_queue()

    # ------------------------------------------------------------------
    # the control tick: utilization, shedding, watchdog, queue pump
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        self._measure_utilization()
        if self.config.shed_enabled:
            self._shed_step()
        if self.config.failover_enabled:
            self._watchdog_step()
        self._pump_queue()
        self.sim.schedule(self.config.tick_ns, self._tick)

    def _measure_utilization(self) -> None:
        then, busy_then = self._busy_sample
        now = self.sim.now
        busy_now = self.testbed.ring.stats_busy_ns
        elapsed = now - then
        if elapsed > 0:
            self.measured_utilization = (busy_now - busy_then) / elapsed
        self._busy_sample = (now, busy_now)

    def _shed_step(self) -> None:
        util = self.measured_utilization
        if util > self.config.shed_high_watermark:
            self._below_low_ticks = 0
            victims = self.select_victims()
            if victims:
                self._shed(victims[0], util)
            return
        if util < self.config.shed_low_watermark:
            self._below_low_ticks += 1
            if self._below_low_ticks >= self.config.shed_resume_hold_ticks:
                self._resume_one_shed()
        else:
            self._below_low_ticks = 0

    def select_victims(self) -> list[ManagedSession]:
        """Shedding policy: who to pause, in order.

        Quality-centric (the Media-TCP argument): lowest priority first;
        within a priority, the newest admission first.  The oldest
        session of the highest priority is never shed -- someone must
        survive an overload for the service to have been worth running.
        """
        active = [ms for ms in self.sessions if ms.state == STREAMING]
        if len(active) <= 1:
            return []
        ordered = sorted(
            active, key=lambda ms: (ms.priority, -ms.control_id)
        )
        # Protect the oldest of the highest priority unconditionally.
        protected = min(
            active, key=lambda ms: (-ms.priority, ms.control_id)
        )
        return [ms for ms in ordered if ms is not protected]

    def _shed(self, ms: ManagedSession, util: float) -> None:
        assert ms.session is not None and ms.server is not None
        ms.session.stop()
        self.ledger.release(ms.server, ms.slot, ms.rate_bytes_per_sec)
        ms.server = ms.slot = None
        ms.state = SHED
        ms.sheds += 1
        self.stats_shed += 1
        self._span(
            "shed",
            session=ms.control_id,
            utilization=round(util, 4),
        )

    def _resume_one_shed(self) -> None:
        shed = [ms for ms in self.sessions if ms.state == SHED]
        if not shed:
            return
        # Highest priority first, oldest first -- the mirror image of
        # the shedding order, so victims return in fairness order.
        ms = min(shed, key=lambda m: (-m.priority, m.control_id))
        if not self.ledger.ring_has_room(ms.rate_bytes_per_sec):
            return
        server = self.select_server(ms.rate_bytes_per_sec)
        if server is None:
            return
        ms.server = server
        ms.slot = self.ledger.commit(server, ms.rate_bytes_per_sec)
        ms.state = ESTABLISHING
        self.stats_resumed += 1
        self._span("resume", session=ms.control_id, server=server)
        self._below_low_ticks = 0
        self._establish(
            ms, resume_from=ms.session.sink_tracker.resume_point()
            if ms.session is not None
            else None,
        )

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _watchdog_step(self) -> None:
        now = self.sim.now
        stalled_servers: list[str] = []
        for ms in self.sessions:
            if ms.state != STREAMING or ms.server is None:
                continue
            progress = ms.sink_tracker.highest_seen
            if progress != ms._last_progress:
                ms._last_progress = progress
                ms._progress_at_ns = now
                continue
            if progress < 0:
                continue  # nothing delivered yet; establishment covers this
            if (
                now - ms._progress_at_ns > self.config.stall_detect_ns
                and ms.server not in self._down
                and ms.server not in stalled_servers
            ):
                stalled_servers.append(ms.server)
        for server in stalled_servers:
            self._declare_down(server)

    def _declare_down(self, server: str) -> None:
        """Mark a server dead and start failover for all its sessions."""
        self._down.add(server)
        self._span("server-down", server=server)
        for ms in self.sessions:
            if ms.server == server and ms.state == STREAMING:
                self._begin_failover(ms)

    def _begin_failover(self, ms: ManagedSession) -> None:
        assert ms.server is not None and ms.session is not None
        now = self.sim.now
        stats = ms.stats
        record = FailoverRecord(
            control_id=ms.control_id,
            from_server=ms.server,
            detected_at_ns=now,
            gap_start_ns=(
                stats.last_arrival
                if stats.last_arrival is not None
                else now
            ),
        )
        ms.failovers.append(record)
        ms.state = FAILING_OVER
        self.stats_failovers += 1
        self._span(
            "failover-detected",
            session=ms.control_id,
            from_server=record.from_server,
        )
        # Stop the dead source's session object (a no-op for a crashed
        # adapter, but a stalled-not-crashed server must not wake up and
        # double-transmit after the replica takes over).
        ms.session.stop()
        # The dead server's slot goes back to its ledger (it will not be
        # used while the server is down -- select_server skips it), but
        # the *ring* reservation stays: the stream is still committed to
        # this segment and will resume on it.
        self.ledger.release(
            ms.server, ms.slot, ms.rate_bytes_per_sec, release_ring=False
        )
        ms.server = ms.slot = None
        self._retry_failover(ms, record)

    def _retry_failover(self, ms: ManagedSession, record: FailoverRecord) -> None:
        if record.establish_rounds >= self.config.max_failover_rounds:
            # Give the ring reservation back too -- the stream is over.
            self.ledger.release_ring_only(ms.rate_bytes_per_sec)
            ms.state = STRANDED
            self.stats_stranded += 1
            self._span("strand", session=ms.control_id)
            self._pump_queue()
            return
        backoff = self.config.failover_backoff_ns * (
            2 ** record.establish_rounds
        )
        jitter = (
            self._rng.randrange(self.config.failover_jitter_ns)
            if self.config.failover_jitter_ns > 0
            else 0
        )
        record.backoff_ns = backoff + jitter
        self.sim.schedule(
            backoff + jitter, self._failover_attempt, ms, record
        )

    def _failover_attempt(
        self, ms: ManagedSession, record: FailoverRecord
    ) -> None:
        if ms.state != FAILING_OVER:
            return  # released meanwhile
        replica = self.plan_failover(ms)
        if replica is None:
            self._retry_failover(ms, record)
            return
        ms.server = replica
        # Ring bandwidth is still reserved from before the crash.
        ms.slot = self.ledger.commit(
            replica, ms.rate_bytes_per_sec, charge_ring=False
        )
        record.to_server = replica
        record.resume_from = ms.session.sink_tracker.resume_point()
        self._span(
            "failover-attempt",
            session=ms.control_id,
            to_server=replica,
            resume_from=record.resume_from,
            round=record.establish_rounds + 1,
        )
        self._establish(ms, resume_from=record.resume_from, record=record)

    def plan_failover(self, ms: ManagedSession) -> Optional[str]:
        """Failover policy: which replica inherits a stranded session.

        Same least-committed placement as admission, minus the down set
        -- a session follows capacity, not affinity.
        """
        return self.select_server(ms.rate_bytes_per_sec)

    # ------------------------------------------------------------------
    # post-establishment progress accounting (closes failover windows)
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run bookkeeping: close resumable failover windows."""
        for ms in self.sessions:
            self._close_failover_windows(ms)

    def _close_failover_windows(self, ms: ManagedSession) -> None:
        if not ms.failovers or ms.session is None:
            return
        arrivals = ms.stats.arrival_times
        for record in ms.failovers:
            if record.resumed_at_ns is None:
                record.resumed_at_ns = first_arrival_after(
                    arrivals, record.detected_at_ns
                )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Deterministic counters for reports and tests."""
        return {
            "submitted": self.stats_submitted,
            "admitted": self.stats_admitted,
            "queued": self.stats_queued,
            "rejected": self.stats_rejected,
            "shed": self.stats_shed,
            "resumed": self.stats_resumed,
            "failovers": self.stats_failovers,
            "stranded": self.stats_stranded,
            "servers_down": sorted(self._down),
            "queue_depth": len(self._queue),
            "ring_committed_bytes_per_sec": (
                self.ledger.ring_committed_bytes_per_sec
            ),
        }

    def _span(self, event: str, **fields: Any) -> None:
        self.decisions.append((self.sim.now, event, fields))
