"""Model validation: the lazy token ring against the hop-level reference.

Exposes the cross-validation used by the ring test suite as a library so
the VALIDATE benchmark can report agreement statistics the way the paper
reports measurements.  The detailed model costs one event per token hop
while traffic is pending; the lazy model costs ~3 events per frame -- this
module also quantifies that speedup, which is what makes the 117-minute
Test Case B runs tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ring.detailed import DetailedTokenRing
from repro.ring.frames import Frame
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS

N_STATIONS = 8
#: One rotation of token-phase uncertainty plus token times.
AGREEMENT_TOLERANCE_NS = N_STATIONS * 300 + 4 * 6_000


@dataclass
class ValidationResult:
    """Agreement statistics between the two ring models."""

    frames: int
    max_delivery_skew_ns: int
    mean_delivery_skew_ns: float
    lazy_events_estimate: int
    detailed_token_hops: int


def random_plan(seed: int, n_frames: int = 60):
    """A mixed random workload over four stations."""
    rng = RandomStreams(seed).get("validation")
    plan = []
    for i in range(n_frames):
        sender = rng.randrange(4)
        receiver = (sender + 1 + rng.randrange(3)) % 4
        plan.append(
            (
                sender,
                receiver,
                rng.randint(1, 2500),
                rng.choice([0, 0, 0, 4]),
                rng.randint(0, 400),
                i,
            )
        )
    return plan


def _run(model: str, plan, horizon_ns: int):
    sim = Simulator()
    if model == "lazy":
        ring = TokenRing(sim, total_stations=N_STATIONS)
        stations = [RingStation(ring, f"s{i}") for i in range(4)]
        hops = None
    else:
        ring = DetailedTokenRing(sim, total_stations=N_STATIONS)
        stations = [ring.attach(f"s{i}") for i in range(4)]
        ring.start()
    deliveries: dict[int, int] = {}
    for s in stations:
        s.receive = lambda f: deliveries.__setitem__(f.payload, sim.now)
    for sender, receiver, nbytes, priority, delay_ms, tag in plan:
        sim.schedule(
            delay_ms * MS,
            stations[sender].transmit,
            Frame(src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
                  priority=priority, payload=tag),
        )
    sim.run(until=horizon_ns)
    hops = getattr(ring, "stats_token_hops", None)
    return deliveries, hops


def validate(seed: int = 1, n_frames: int = 60) -> ValidationResult:
    """Run one random workload through both models and compare."""
    plan = random_plan(seed, n_frames)
    horizon = (max(p[4] for p in plan) + 600) * MS
    lazy, _ = _run("lazy", plan, horizon)
    detailed, hops = _run("detailed", plan, horizon)
    if set(lazy) != set(detailed):
        raise AssertionError("delivery sets diverged")
    skews = [
        abs(a - b)
        for a, b in zip(sorted(lazy.values()), sorted(detailed.values()))
    ]
    # mean_delivery_skew_ns is a float *statistic* about ns values, not
    # calendar input; CTMS201 anchors to the call's opening line.
    return ValidationResult(  # ctms-lint: disable=CTMS201
        frames=len(lazy),
        max_delivery_skew_ns=max(skews) if skews else 0,
        mean_delivery_skew_ns=sum(skews) / len(skews) if skews else 0.0,
        lazy_events_estimate=3 * len(lazy),
        detailed_token_hops=hops or 0,
    )
