"""The Section 5.3 ablation matrix as a library.

Runs Test Case B with one of the paper's modifications switched off at a
time, each paired with a memory-intensive compute process on the
transmitter (the paper's own framing of the IOCC contention problem: "If
the CPU is executing a memory intensive computation at the time, the
arbitration between the DMA and the CPU access will degrade the execution
speed of both").  :func:`run_load_sweep` varies one knob instead: the
background load.  ``repro.experiments.claims`` runs both for their
``results/`` tables (also ``python -m repro ablate``).  The end of the
module is the ``ablation`` fleet campaign kind: the matrix sharded per
(variant, seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Generator, Optional

from repro.core.session import CTMSSession
from repro.experiments.runner import build_scenario, run_scenario
from repro.experiments.scenarios import Scenario, test_case_b
from repro.sim.units import MS, SEC, US
from repro.unix.process import UserProcess

DEFAULT_DURATION = 25 * SEC


@dataclass
class AblationEntry:
    """Measured effects of one configuration."""

    name: str
    h6_min: int
    h6_p95: int
    h7_p95: int
    lost: int
    delivered: int
    compute_chunks: int
    token_wait_per_frame: float

    def as_row(self) -> list[str]:
        return [
            self.name,
            f"{self.h6_min / US:.0f}",
            f"{self.h6_p95 / US:.0f}",
            f"{self.h7_p95 / US:.0f}",
            str(self.compute_chunks),
            f"{self.token_wait_per_frame / US:.0f}",
            str(self.lost),
        ]


def matrix_variants(duration_ns: int = DEFAULT_DURATION, seed: int = 1):
    """The default one-switch-at-a-time variant set."""
    base = test_case_b(duration_ns=duration_ns, seed=seed)
    return {
        "baseline (Test B)": base,
        "fixed DMA buffers in system memory": base.variant(
            "sysmem",
            tx_use_io_channel_memory=False,
            rx_use_io_channel_memory=False,
        ),
        "recompute TR header per packet": base.variant(
            "header", tx_precompute_header=False
        ),
        "no driver priority for CTMSP": base.variant(
            "noprio", driver_priority_queueing=False
        ),
        "no ring media priority": base.variant("noring", ctmsp_ring_priority=0),
    }


def run_matrix(
    duration_ns: int = DEFAULT_DURATION, seed: int = 1
) -> dict[str, AblationEntry]:
    """Run every variant and summarize."""
    entries: dict[str, AblationEntry] = {}
    for name, scenario in matrix_variants(duration_ns, seed).items():
        entries[name] = run_one(name, scenario)
    return entries


def run_variant(
    name: str, duration_ns: int = DEFAULT_DURATION, seed: int = 1
) -> AblationEntry:
    """Run a single named variant from primitive, picklable arguments.

    The fleet runner's ablation workers call this: a campaign point
    carries only ``(variant, duration_ns, seed)`` across the process
    boundary and the worker rebuilds the scenario here, exactly as
    :func:`run_matrix` would have.
    """
    variants = matrix_variants(duration_ns, seed)
    if name not in variants:
        raise ValueError(
            f"unknown ablation variant {name!r}; known: {sorted(variants)}"
        )
    return run_one(name, variants[name])


def run_one(name: str, scenario: Scenario) -> AblationEntry:
    """One variant with the attached compute-progress probe."""
    result = run_scenario(scenario)

    # Re-run the identical scenario with a memory-intensive computation on
    # the transmitter; its completed work measures DMA cycle stealing.
    progress = {"chunks": 0}

    def compute(proc: UserProcess) -> Generator:
        while True:
            yield from proc.compute(1 * MS)
            progress["chunks"] += 1

    bed, tx, rx, background, _tap = build_scenario(scenario)
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    if background is not None:
        background.start()
    UserProcess(tx.kernel, "memhog").start(compute)
    bed.run(scenario.duration_ns)

    h6 = result.histograms[6]
    h7 = result.histograms[7]
    ring = result.testbed.ring
    frames = ring.stats_by_protocol.get("ctmsp", {"frames": 1})["frames"]
    return AblationEntry(
        name=name,
        h6_min=h6.min(),
        h6_p95=h6.percentile(95),
        h7_p95=h7.percentile(95),
        lost=result.tracker.lost_packets,
        delivered=result.tracker.delivered,
        compute_chunks=progress["chunks"],
        token_wait_per_frame=(
            ring.stats_token_wait_ns.get("ctmsp", 0) / max(1, frames)
        ),
    )


TABLE_HEADERS = [
    "configuration",
    "h6 min(us)",
    "h6 p95(us)",
    "h7 p95(us)",
    "compute done",
    "token wait(us)",
    "lost",
]


#: The load sweep's background-load multipliers (1.0 is Test Case B's).
LOADS = (0.0, 0.5, 1.0, 2.0)


@dataclass
class LoadPoint:
    """CTMSP service quality at one background load."""

    util: float
    #: Packets not sent within 500us of the 2600us no-delay mode.
    delayed: float
    h6_p95: int
    h7_p95: int
    h7_max: int
    lost: int


def run_load_sweep(
    duration_ns: int = 20 * SEC, seed: int = 5
) -> dict[float, LoadPoint]:
    """Test Case B with its background load scaled (an extension: the paper
    measures a silent ring and "normal loading" only)."""
    points = {}
    for load in LOADS:
        scenario = test_case_b(duration_ns=duration_ns, seed=seed)
        result = run_scenario(scenario.variant(f"load{load}", background_load=load))
        h6, h7 = result.histograms[6], result.histograms[7]
        points[load] = LoadPoint(
            util=result.testbed.ring.utilization(duration_ns),
            delayed=1 - h6.fraction_within(2_600 * US, 500 * US),
            h6_p95=h6.percentile(95),
            h7_p95=h7.percentile(95),
            h7_max=h7.max(),
            lost=result.tracker.lost_packets,
        )
    return points


# ----------------------------------------------------------------------
# the "ablation" fleet campaign kind (see repro.experiments.fleet)
# ----------------------------------------------------------------------
def ablation_fleet_spec(
    duration_ns: int,
    seeds: list[int] | range = (1,),
    variants: Optional[list[str]] = None,
):
    """The Section 5.3 one-switch-at-a-time matrix, sharded per variant."""
    from repro.experiments.fleet import FleetPoint, FleetSpec

    seeds = list(seeds)
    names = variants or list(matrix_variants(duration_ns))
    points = []
    for name in names:
        task_hash = hashlib.sha256(
            f"ablation\0{name}\0{duration_ns}".encode()
        ).hexdigest()[:12]
        for seed in seeds:
            points.append(
                FleetPoint(
                    task_hash=task_hash,
                    seed=seed,
                    params={
                        "variant": name,
                        "duration_ns": duration_ns,
                        "seed": seed,
                    },
                    label=f"ablation {name!r} seed {seed}",
                    replay=(
                        f"python -m repro ablate "
                        f"--seconds {max(1, duration_ns // SEC)} --seed {seed}"
                    ),
                )
            )
    return FleetSpec(
        kind="ablation",
        points=points,
        meta={"duration_ns": duration_ns, "seeds": seeds, "variants": names},
    )


def run_point(params: dict) -> dict:
    """One fleet point: a named variant at one seed, as a JSON-safe dict."""
    entry = run_variant(
        params["variant"], params["duration_ns"], params["seed"]
    )
    return {"seed": params["seed"], **asdict(entry)}


def render_fleet(spec, results: dict[str, dict]) -> str:
    """The merged matrix, one row per (variant, seed) in spec order."""
    from repro.obs.metrics import format_table

    rows = []
    for point in spec.points:
        record = results.get(point.key)
        if record is None:
            continue
        data = dict(record["result"])
        seed = data.pop("seed")
        entry = AblationEntry(**data)
        rows.append([str(seed)] + entry.as_row())
    return format_table(
        "Fleet ablation matrix (one switch flipped at a time)",
        ["seed"] + TABLE_HEADERS,
        rows,
    )


def rollup(results: list[dict]) -> dict:
    """Per-variant totals across every journalled seed, name-ordered."""
    rows: dict[str, dict] = {}
    for r in results:
        name = str(r.get("name", "?"))
        row = rows.setdefault(
            name, {"variant": name, "seeds": 0, "delivered": 0, "lost": 0}
        )
        row["seeds"] += 1
        row["delivered"] += int(r.get("delivered", 0))
        row["lost"] += int(r.get("lost", 0))
    return {"ablations": [rows[name] for name in sorted(rows)]}


def render_rollup(summary: dict) -> str:
    """The per-variant totals table."""
    from repro.obs.metrics import format_table

    return format_table(
        "Ablation rollup (totals across seeds)",
        ["configuration", "seeds", "delivered", "lost"],
        [[str(value) for value in row.values()] for row in summary["ablations"]],
    )
