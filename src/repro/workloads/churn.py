"""Session churn: a deterministic arrival/departure workload.

The paper sized one stream; a campus deployment is a *population* of
clients starting and abandoning sessions all day.  This module gives the
session control plane (:mod:`repro.core.control`) something realistic to
admit against: a schedule of ``establish()`` arrivals and releases,
reproducible event-for-event so admission decisions can be golden-pinned.

Two pieces:

* :class:`ChurnSchedule` -- an inert list of :class:`SessionRequest`
  records, built with :meth:`ChurnSchedule.add`, with the same
  ``stable_hash()`` contract as :class:`~repro.faults.plan.FaultPlan`;
* :class:`ChurnDriver` -- arms a schedule against a control plane: each
  request submits at its arrival instant and, if admitted (immediately or
  later from the queue), releases after its hold time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: Requests with no departure scheduled hold their session forever.
HOLD_FOREVER = -1


@dataclass(frozen=True)
class SessionRequest:
    """One client's wish for a stream: when, for how long, how important."""

    at_ns: int
    client: str
    #: Hold time after admission; :data:`HOLD_FOREVER` means never release.
    duration_ns: int = HOLD_FOREVER
    #: Larger is more important; sheds lowest-priority-first.
    priority: int = 0


class ChurnSchedule:
    """An ordered schedule of session arrivals and departures."""

    def __init__(self) -> None:
        self.requests: list[SessionRequest] = []

    def add(
        self,
        at_ns: int,
        client: str,
        duration_ns: int = HOLD_FOREVER,
        priority: int = 0,
    ) -> "ChurnSchedule":
        self.requests.append(
            SessionRequest(
                at_ns=at_ns,
                client=client,
                duration_ns=duration_ns,
                priority=priority,
            )
        )
        return self

    def sorted_requests(self) -> list[SessionRequest]:
        """Arrival order; ties break by client name then priority."""
        return sorted(
            self.requests,
            key=lambda r: (r.at_ns, r.client, r.priority),
        )

    def stable_hash(self) -> str:
        """Short content hash (order-insensitive), mirroring FaultPlan's.

        Campaign journals key churn results by this value: the hash names
        the demand the control plane will face, not how the schedule
        object was built.
        """
        canonical = json.dumps(
            [
                {
                    "at_ns": r.at_ns,
                    "client": r.client,
                    "duration_ns": r.duration_ns,
                    "priority": r.priority,
                }
                for r in self.sorted_requests()
            ],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


class ChurnDriver:
    """Plays a :class:`ChurnSchedule` against a session control plane.

    The driver is pure mechanism -- every *decision* (admit, queue,
    reject, place) happens inside the control plane; the driver only
    submits on schedule and releases after the hold time.  A queued
    request's hold clock starts when the session is finally admitted, not
    at submission: the client waited, then used their full allotment.
    """

    def __init__(self, testbed, control_plane, schedule: ChurnSchedule) -> None:
        self.testbed = testbed
        self.sim = testbed.sim
        self.control = control_plane
        self.schedule = schedule
        #: Managed sessions created, in arrival order (for reports).
        self.managed: list = []
        self._armed = False

    def arm(self) -> "ChurnDriver":
        """Schedule every arrival relative to *now* (idempotent guard)."""
        if self._armed:
            raise RuntimeError("churn schedule already armed")
        self._armed = True
        for request in self.schedule.sorted_requests():
            self.sim.schedule(request.at_ns, self._arrive, request)
        return self

    def _arrive(self, request: SessionRequest) -> None:
        ms = self.control.submit(
            request.client, priority=request.priority
        )
        self.managed.append(ms)
        if request.duration_ns != HOLD_FOREVER:
            self._watch_for_departure(ms, request)

    def _watch_for_departure(self, ms, request: SessionRequest) -> None:
        """Start the hold clock once admitted; poll while queued."""
        if ms.admitted_at_ns is not None:
            self.sim.schedule(
                request.duration_ns, self.control.release, ms
            )
        elif ms.state == "queued":
            self.sim.schedule(
                self.control.config.tick_ns,
                self._watch_for_departure,
                ms,
                request,
            )
        # rejected: nothing to release.
