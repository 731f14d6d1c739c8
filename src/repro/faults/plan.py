"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultEvent` entries -- *when* to
injure the system, *what* kind of injury, and the injury's parameters.  The
plan itself is inert data: it can be built by hand, generated from a seeded
RNG (:meth:`FaultPlan.random`), rendered for a report, and applied to a
testbed by :class:`~repro.faults.injectors.FaultInjector`.  Keeping the
schedule declarative is what makes chaos campaigns reproducible: the same
seed builds the same plan, and the same plan wounds two configurations in
exactly the same way.

Fault taxonomy (paper citations in ``docs/FAULTS.md``):

=====================  ======  ==============================================
kind                   layer   models
=====================  ======  ==============================================
purge                  ring    one Ring Purge (a soft error, Section 5)
purge_burst            ring    a station insertion's back-to-back purges
soft_error_storm       ring    Poisson purges at an elevated rate for a window
token_starvation       ring    hostile high-priority traffic holding the token
frame_loss             ring    frames of one protocol corrupted on the wire
tx_stall               adapter adapter ignores the transmit command for a while
rx_delay               adapter receive-interrupt coalescing/delay
cpu_steal              host    a DMA-class competitor slowing copyin/copyout
server_crash           server  media server dies mid-stream (fail-stop, stays down)
=====================  ======  ==============================================
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.hardware import calibration
from repro.sim.units import MS, SEC

#: Ring-level fault kinds (no target host; they wound the shared medium).
RING_KINDS = frozenset(
    {
        "purge",
        "purge_burst",
        "soft_error_storm",
        "token_starvation",
        "frame_loss",
    }
)

#: Adapter/driver-level fault kinds (require a target host).
ADAPTER_KINDS = frozenset({"tx_stall", "rx_delay"})

#: Host-level fault kinds (require a target host).
HOST_KINDS = frozenset({"cpu_steal"})

#: Media-server fault kinds (require a target host).  ``server_crash`` is
#: fail-stop: every VCA source on the host halts, its transmit path wedges,
#: and its receive buffers never come back -- the host stays dead for the
#: rest of the run.
SERVER_KINDS = frozenset({"server_crash"})

#: Every kind an injector knows how to apply.
FAULT_KINDS = RING_KINDS | ADAPTER_KINDS | HOST_KINDS | SERVER_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injury.

    ``at_ns`` is relative to the moment the plan is armed; ``host`` names
    the wounded machine for adapter- and host-level kinds (must be None for
    ring-level kinds); ``params`` carries kind-specific knobs.
    """

    at_ns: int
    kind: str
    host: Optional[str] = None
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.at_ns < 0:
            raise ValueError(f"fault scheduled in the past: {self.at_ns}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.kind in RING_KINDS and self.host is not None:
            raise ValueError(f"{self.kind} is ring-level; host must be None")
        if self.kind not in RING_KINDS and self.host is None:
            raise ValueError(f"{self.kind} needs a target host")

    def describe(self) -> str:
        where = self.host or "ring"
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"t+{self.at_ns / MS:9.3f}ms  {self.kind:<20} {where:<12} {extras}"
        ).rstrip()


class FaultPlan:
    """An ordered schedule of fault events.

    Builder methods return ``self`` so plans read as one expression::

        plan = (FaultPlan()
                .purge_burst(at_ns=2 * SEC, count=10)
                .cpu_steal(at_ns=4 * SEC, duration_ns=SEC, host="receiver"))
    """

    def __init__(self, events: Optional[list[FaultEvent]] = None) -> None:
        self.events: list[FaultEvent] = list(events or [])

    # ------------------------------------------------------------------
    # generic construction
    # ------------------------------------------------------------------
    def add(
        self,
        at_ns: int,
        kind: str,
        host: Optional[str] = None,
        **params: Any,
    ) -> "FaultPlan":
        event = FaultEvent(at_ns=at_ns, kind=kind, host=host, params=params)
        event.validate()
        self.events.append(event)
        return self

    # ------------------------------------------------------------------
    # ring-level builders
    # ------------------------------------------------------------------
    def purge(
        self,
        at_ns: int,
        duration_ns: int = calibration.RING_PURGE_DURATION,
    ) -> "FaultPlan":
        """One isolated Ring Purge (the paper's soft-error reset)."""
        return self.add(at_ns, "purge", duration_ns=duration_ns)

    def purge_burst(
        self,
        at_ns: int,
        count: int = calibration.RING_INSERTION_PURGE_BURST,
        spacing_ns: int = calibration.RING_PURGE_DURATION,
    ) -> "FaultPlan":
        """A station insertion: ~10 Ring Purges back to back (Section 5)."""
        return self.add(at_ns, "purge_burst", count=count, spacing_ns=spacing_ns)

    def soft_error_storm(
        self,
        at_ns: int,
        duration_ns: int,
        rate_per_hour: float = 3600.0,
    ) -> "FaultPlan":
        """Poisson single purges at ``rate_per_hour`` for the window."""
        return self.add(
            at_ns,
            "soft_error_storm",
            duration_ns=duration_ns,
            rate_per_hour=rate_per_hour,
        )

    def token_starvation(
        self,
        at_ns: int,
        duration_ns: int,
        priority: int = 2,
        frame_bytes: int = 2000,
        utilization: float = 0.9,
    ) -> "FaultPlan":
        """Hostile traffic at ``priority`` claiming ~``utilization`` of the wire.

        Priority 2 starves stock priority-0 streams while CTMSP's media
        priority (4) still preempts it -- the paper's Section 3 argument for
        Token Ring media priority, weaponized.
        """
        return self.add(
            at_ns,
            "token_starvation",
            duration_ns=duration_ns,
            priority=priority,
            frame_bytes=frame_bytes,
            utilization=utilization,
        )

    def frame_loss(
        self,
        at_ns: int,
        duration_ns: int,
        protocol: str = "ctmsp",
        fraction: float = 1.0,
    ) -> "FaultPlan":
        """Corrupt ``fraction`` of ``protocol`` frames on the wire.

        The transmitter still sees a normal completion -- the Section 4
        silent-loss semantics, generalized beyond purges.  ``protocol``
        may be ``"*"`` to injure everything.
        """
        return self.add(
            at_ns,
            "frame_loss",
            duration_ns=duration_ns,
            protocol=protocol,
            fraction=fraction,
        )

    # ------------------------------------------------------------------
    # adapter-level builders
    # ------------------------------------------------------------------
    def tx_stall(self, at_ns: int, duration_ns: int, host: str) -> "FaultPlan":
        """The adapter's microcode sits on the transmit command."""
        return self.add(at_ns, "tx_stall", host=host, duration_ns=duration_ns)

    def rx_delay(
        self, at_ns: int, duration_ns: int, host: str, delay_ns: int
    ) -> "FaultPlan":
        """Receive interrupts delivered ``delay_ns`` late (coalescing)."""
        return self.add(
            at_ns, "rx_delay", host=host, duration_ns=duration_ns, delay_ns=delay_ns
        )

    # ------------------------------------------------------------------
    # host-level builders
    # ------------------------------------------------------------------
    def cpu_steal(
        self, at_ns: int, duration_ns: int, host: str, layers: int = 1
    ) -> "FaultPlan":
        """``layers`` DMA-class competitors stretch every CPU copy."""
        return self.add(
            at_ns, "cpu_steal", host=host, duration_ns=duration_ns, layers=layers
        )

    # ------------------------------------------------------------------
    # media-server builders
    # ------------------------------------------------------------------
    def server_crash(self, at_ns: int, host: str) -> "FaultPlan":
        """Fail-stop death of a media server: it never comes back.

        Every VCA source on the host halts mid-period, the Token Ring
        transmit path wedges, and the receive DMA buffers are seized for
        the rest of the run.  Sessions sourced there go silent at the sink;
        only a control plane with a replica can save them.
        """
        return self.add(at_ns, "server_crash", host=host)

    # ------------------------------------------------------------------
    # interrogation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def sorted_events(self) -> list[FaultEvent]:
        """Events in firing order (stable for equal times)."""
        return sorted(self.events, key=lambda e: e.at_ns)

    def validate(self) -> None:
        for event in self.events:
            event.validate()

    def describe(self) -> str:
        lines = [f"FaultPlan ({len(self.events)} events)"]
        lines += [f"  {event.describe()}" for event in self.sorted_events()]
        return "\n".join(lines)

    def stable_hash(self) -> str:
        """A short content hash of the schedule (order-insensitive).

        Two plans with the same events hash identically regardless of the
        insertion order, so the hash names *what will happen to the
        system*, not how the plan object was built.  Campaign journals key
        results by this value: a result is reusable exactly when the plan
        that produced it would injure the testbed identically.
        """
        canonical = json.dumps(
            [
                {
                    "at_ns": e.at_ns,
                    "kind": e.kind,
                    "host": e.host,
                    "params": {k: e.params[k] for k in sorted(e.params)},
                }
                for e in self.sorted_events()
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # seeded random generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng: random.Random,
        duration_ns: int,
        intensity: float = 1.0,
        hosts: Optional[list[str]] = None,
        start_ns: int = 250 * MS,
    ) -> "FaultPlan":
        """A seeded random plan whose severity scales with ``intensity``.

        Determinism contract: the same ``rng`` state, duration, intensity
        and host list produce an identical plan.  Events land in
        ``[start_ns, duration_ns)`` so a session can establish before the
        weather turns.
        """
        if intensity < 0:
            raise ValueError("negative intensity")
        hosts = hosts or []
        plan = cls()
        if intensity == 0 or duration_ns <= start_ns:
            return plan
        window = duration_ns - start_ns
        kinds = [
            "purge",
            "purge_burst",
            "soft_error_storm",
            "token_starvation",
            "cpu_steal",
            "rx_delay",
            "tx_stall",
        ]
        # ~2 events/sim-second at intensity 1.0, at least one.
        count = max(1, round(2.0 * intensity * (window / SEC)))
        for _ in range(count):
            kind = rng.choice(kinds)
            at = start_ns + rng.randrange(window)
            if kind in RING_KINDS:
                host = None
            elif hosts:
                host = rng.choice(hosts)
            else:
                continue  # no hosts to wound; skip host-scoped kinds
            burst_len = max(10 * MS, round(intensity * 60 * MS))
            if kind == "purge":
                plan.purge(at)
            elif kind == "purge_burst":
                plan.purge_burst(at, count=rng.randint(8, 13))
            elif kind == "soft_error_storm":
                plan.soft_error_storm(
                    at,
                    duration_ns=burst_len * 4,
                    rate_per_hour=3600.0 * 20 * intensity,
                )
            elif kind == "token_starvation":
                plan.token_starvation(
                    at,
                    duration_ns=burst_len * 8,
                    utilization=min(0.95, 0.5 + 0.2 * intensity),
                )
            elif kind == "cpu_steal":
                plan.cpu_steal(
                    at,
                    duration_ns=burst_len * 6,
                    host=host,
                    layers=max(1, round(intensity)),
                )
            elif kind == "rx_delay":
                plan.rx_delay(
                    at,
                    duration_ns=burst_len * 4,
                    host=host,
                    delay_ns=round(min(8 * MS, 1 * MS * intensity)),
                )
            elif kind == "tx_stall":
                plan.tx_stall(
                    at,
                    duration_ns=round(min(30 * MS, 4 * MS * intensity)),
                    host=host,
                )
        return plan
