"""The claim table: every ``results/`` table, its pinned run and its claims.

An :class:`Entry` is one ``results/<name>.txt``: how to run it (a pinned
duration and seed, either overridable), how to render it, and one
:class:`Claim` per quantity the paper states or its benchmark asserts.  A
:class:`Figure` is the histogram case.  The reports (``results/``, the
``repro`` commands) and the benchmark asserts all read this table.

A row without a band is reported, not asserted: the reproduction knowingly
misses the paper there (EXPERIMENTS.md) or its benchmark asserts another
window.  A band is closed; :func:`above` and :func:`below` make a strict
end.  An entry none of whose claims has paper text (``"-"``) is an
extension: the paper has no number for it.

One run per test case, as in the paper: the Test Case A entries read one
run (``TEST_A_RUN``), the Test Case B entries another (``TEST_B_RUN``).
Each runner keeps its last result, so a process runs each once; readers
must not change it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.core.direct import paper_claims
from repro.experiments.ablations import TABLE_HEADERS, run_load_sweep, run_matrix
from repro.experiments.baseline import run_rate_comparison
from repro.experiments.copies import measure_all
from repro.experiments.instruments import run_tool_characterization
from repro.experiments.playout import play_cd_audio, run_buffer_sizing
from repro.experiments.ring_studies import (
    measure_mac_band,
    run_purge_experiment,
    run_ring_priority,
    run_stream_sweep,
)
from repro.experiments.runner import RunResult, run_scenario
from repro.experiments.scenarios import test_case_a, test_case_b
from repro.experiments.validation import AGREEMENT_TOLERANCE_NS, validate
from repro.hardware import calibration
from repro.measure.histogram import Histogram
from repro.obs.metrics import format_table
from repro.sim.units import MINUTE, MS, SEC, US
from repro.workloads.media import CD_AUDIO as CD_AUDIO_MEDIUM

inf = math.inf


@dataclass(frozen=True)
class Claim:
    """One paper-vs-measured row.  ``read`` takes the entry's result (a
    figure's histogram).  ``fmt`` formats the value read as ``{0}``, with a
    figure run's ``minutes`` and ring ``insertions`` by name, or is a
    function of the result for a row that shows more than that value."""

    label: str
    paper: str
    read: Callable[[Any], float]
    fmt: Union[str, Callable[[Any], str]] = "{0}"
    #: Closed ``(lo, hi)`` band the value must fall in, in ``read``'s unit.
    band: Optional[tuple[float, float]] = None

    def holds(self, value: float) -> bool:
        lo, hi = self.band
        return lo <= value <= hi

    def show(self, subject: Any, **context) -> str:
        if callable(self.fmt):
            return self.fmt(subject)
        return self.fmt.format(self.read(subject), **context)


def near(center: float, tolerance: float) -> tuple[float, float]:
    """The band ``center +/- tolerance``."""
    return (center - tolerance, center + tolerance)


def above(x: float) -> float:
    """The least float above ``x``: a band from it asserts ``value > x``."""
    return math.nextafter(x, inf)


def below(x: float) -> float:
    """The greatest float below ``x``: a band to it asserts ``value < x``."""
    return math.nextafter(x, -inf)


@dataclass(frozen=True, kw_only=True)
class Entry:
    """One ``results/`` table: how to reproduce it and what the paper claims."""

    #: The table is ``results/<name>.txt``.
    name: str
    title: str
    #: ``(duration_ns, seed) -> result``, the object the claims read.
    runner: Callable[[Optional[int], int], Any]
    #: The benchmark's pinned run; ``None`` for a run not sized in time.
    duration_ns: Optional[int]
    seed: int
    claims: tuple[Claim, ...]
    #: ``result -> (columns, rows)`` for a table that is not the claim rows.
    table: Optional[Callable[[Any], tuple[list[str], list[list[str]]]]] = None

    def run(self, duration_ns: Optional[int] = None, seed: Optional[int] = None) -> Any:
        """Run the entry's experiment (the pinned run by default)."""
        return self.runner(
            self.duration_ns if duration_ns is None else duration_ns,
            self.seed if seed is None else seed,
        )

    def report(self, result: Any) -> str:
        """The ``results/`` table for one run."""
        if self.table is None:
            return self.claim_table(result)
        return format_table(self.title, *self.table(result))

    def claim_table(self, subject: Any, **context) -> str:
        """The quantity / paper / measured table of the claim rows."""
        rows = [[c.label, c.paper, c.show(subject, **context)] for c in self.claims]
        return format_table(self.title, ["quantity", "paper", "measured"], rows)

    def banded(self, result: Any) -> list[tuple[Claim, float]]:
        """Each banded claim with the value it reads off ``result``."""
        return [(c, c.read(result)) for c in self.claims if c.band is not None]

    @property
    def extension(self) -> bool:
        """True when the paper states none of the entry's quantities."""
        return all(c.paper == "-" for c in self.claims)


@dataclass(frozen=True, kw_only=True)
class Figure(Entry):
    """A paper figure: one of Section 5.3's seven histograms."""

    histogram: int
    ascii_name: str
    bin_width: int
    ascii_rows: int

    def report(self, result: Any) -> str:
        """The paper-vs-measured table and ASCII histogram for one run."""
        return self.render(
            result.histograms[self.histogram],
            minutes=result.scenario.duration_ns / MINUTE,
            insertions=result.testbed.inserter.stats_insertions,
        )

    def render(self, hist: Histogram, minutes: float = 0.0, insertions: int = 0) -> str:
        """The report for ``hist`` from a run of ``minutes`` with ``insertions``."""
        table = self.claim_table(hist, minutes=minutes, insertions=insertions)
        return table + "\n\n" + Histogram(
            hist.samples, name=self.ascii_name, bin_width=self.bin_width
        ).to_ascii(width=48, max_rows=self.ascii_rows)

    def banded(self, result: Any) -> list[tuple[Claim, float]]:
        return super().banded(result.histograms[self.histogram])


def _values(*rows: list[str]) -> tuple[list[str], list[list[str]]]:
    """A two-column quantity / value table (no paper column)."""
    return ["quantity", "value"], list(rows)


@functools.lru_cache(maxsize=1)
def run_test_case_a(duration_ns: int, seed: int) -> RunResult:
    """Test Case A: the run Figure 5-3 and histograms 1-7 (Test A) read."""
    return run_scenario(test_case_a(duration_ns, seed))


@functools.lru_cache(maxsize=1)
def run_test_case_b(duration_ns: int, seed: int) -> RunResult:
    """Test Case B with ring insertions: the run Figures 5-2 and 5-4,
    histograms 1-7 (Test B) and Section 6 read, as all read the paper's
    117-minute run.  One insertion per ``minutes // 3`` simulated minutes
    (at least one a minute), so a minutes-scale run sees a few where the
    paper's 117 minutes at ~1/hour saw two: 720 a day at 6 minutes."""
    per_day = 24 * 60.0 / max(1, duration_ns // MINUTE // 3)
    return run_scenario(test_case_b(duration_ns, seed, per_day))


#: The pinned runs, one per test case.
TEST_A_RUN = dict(duration_ns=60 * SEC, seed=1)
TEST_B_RUN = dict(duration_ns=6 * MINUTE, seed=2)


# --- Section 5.3: Figures 5-2, 5-3, 5-4 and histograms 1-7 ---
FIG_5_2 = Figure(
    name="fig_5_2",
    title="Figure 5-2: VCA handler entered to just prior to transmission "
    "(Test Case B)",
    runner=run_test_case_b, **TEST_B_RUN,
    histogram=6, ascii_name="histogram 6 (Test B)",
    bin_width=500 * US, ascii_rows=30,
    claims=(
        # The no-delay mode dominates but a large minority of packets wait.
        Claim("within 500us of 2600us", "68%",
              lambda h: h.fraction_within(2600 * US, 500 * US),
              "{0:.1%}", band=(0.45, 0.85)),
        Claim("within 500us of 9400us", "15%",
              lambda h: h.fraction_within(9400 * US, 500 * US), "{0:.1%}"),
        # The paper's 9400us +/- 500us band, widened for the model's
        # resonance position: a secondary concentration of full-service waits.
        Claim("secondary concentration 8.4-10.4ms", "~15% (paper band 8.9-9.9ms)",
              lambda h: h.fraction_between(8400 * US, 10_400 * US),
              "{0:.1%}", band=(0.05, 1.0)),
        Claim("between 2800us and 9300us", "16.5%",
              lambda h: h.fraction_between(2800 * US, 9300 * US), "{0:.1%}"),
        Claim("tails beyond 14000us", "~2% total tails to 14000us",
              lambda h: 1 - h.fraction_between(0, 14_000 * US),
              "{0:.2%}", band=(0.0, 0.03)),
        # 2000us of copy (1 us/byte into IO Channel Memory) + ~600us of code.
        Claim("primary mode", "2600us",
              lambda h: h.primary_mode() / US, "{0:.0f}us", band=near(2600, 500)),
        Claim("samples", "(117-minute run)", lambda h: h.count),
    ),
)

FIG_5_3 = Figure(
    name="fig_5_3",
    title="Figure 5-3: Transmitter to Receiver Times, Test Case A",
    runner=run_test_case_a, **TEST_A_RUN,
    histogram=7, ascii_name="histogram 7 (Test A)",
    bin_width=100 * US, ascii_rows=25,
    claims=(
        # Minimum and mean within 2% of the paper's.
        Claim("minimum latency", "10740us",
              lambda h: h.min() / US, "{0:.0f}us", band=near(10_740, 220)),
        Claim("mean", "10894us",
              lambda h: round(h.mean()) / US, "{0:.0f}us", band=near(10_894, 220)),
        Claim("within 160us of mean", "98%",
              lambda h: h.fraction_within(round(h.mean()), 160 * US),
              "{0:.1%}", band=(0.95, 1.0)),
        # A right tail that stays bounded.
        Claim("right tail extends to", "14600us",
              lambda h: h.max() / US, "{0:.0f}us", band=(0, 16_000)),
        Claim("samples", "-", lambda h: h.count),
    ),
)

FIG_5_4 = Figure(
    name="fig_5_4",
    title="Figure 5-4: Transmitter to Receiver Times, Test Case B",
    runner=run_test_case_b, **TEST_B_RUN,
    histogram=7, ascii_name="histogram 7 (Test B)",
    bin_width=500 * US, ascii_rows=30,
    claims=(
        Claim("minimum latency", "10750us",
              lambda h: h.min() / US, "{0:.0f}us", band=near(10_750, 220)),
        Claim("peak", "10900us",
              lambda h: h.primary_mode() / US, "{0:.0f}us", band=near(10_900, 400)),
        # The peak holds the majority.
        Claim("within 160us of peak", "76%",
              lambda h: h.fraction_within(h.primary_mode(), 160 * US),
              "{0:.1%}", band=(0.6, 0.95)),
        # A substantial 11-15ms shoulder from the loaded ring.
        Claim("in 11060-15000us", "21.5%",
              lambda h: h.fraction_between(11_060 * US, 15_000 * US),
              "{0:.1%}", band=(0.05, 1.0)),
        Claim("in 15000-40050us", "2.49%",
              lambda h: h.fraction_between(15_000 * US, 40_050 * US), "{0:.2%}"),
        Claim("points in 100-140ms (ring insertions)", "2 in 117 min",
              lambda h: h.count_between(100 * MS, 140 * MS),
              "{0} in {minutes:.0f} min ({insertions} insertions)"),
        Claim("samples", "-", lambda h: h.count),
    ),
)


def _histogram_table(result) -> tuple[list[str], list[list[str]]]:
    rows = []
    for i in sorted(result.histograms):
        h = result.histograms[i]
        s = h.summary() if h.count else {}
        stats = [f"{s[k]:.0f}" if s else "-" for k in ("mean_us", "std_us", "min_us", "max_us")]
        rows.append([h.name, str(h.count)] + stats)
    return ["histogram", "n", "mean(us)", "std(us)", "min(us)", "max(us)"], rows


def _tracks_vca_period(i: int, tolerance: int) -> Claim:
    """Histogram ``i``'s mean is the 12 ms VCA period within ``tolerance``."""
    return Claim(f"h{i} mean", "12 ms VCA period",
                 lambda r: r.histograms[i].mean(), "{0:.0f} ns",
                 band=(above(12 * MS - tolerance), below(12 * MS + tolerance)))


#: Histogram 5's ceiling: the IRQ-to-entry floor, the paper's 440us of
#: variation, and the PC/AT tool's 120us spread on both endpoints.
H5_CEILING = calibration.IRQ_ENTRY_OVERHEAD + 440 * US + 250 * US

HISTOGRAMS_A = Entry(
    name="histograms_case_a",
    title="Histograms 1-7, Test Case A",
    runner=run_test_case_a, **TEST_A_RUN,
    table=_histogram_table,
    claims=(
        # h1: the VCA interrupt source is rock stable; all measured spread
        # is the PC/AT tool's own service-delay error.
        _tracks_vca_period(1, 20 * US),
        Claim("h1 spread", "+/- 120 us (PC/AT tool)",
              lambda r: r.histograms[1].max() - r.histograms[1].min(), "{0} ns",
              band=(-inf, 2 * (calibration.PCAT_EXPECTED_SPREAD
                               + calibration.VCA_INTERRUPT_JITTER) + 10 * US)),
        # h2/h3/h4 all track the 12ms source on average.
        _tracks_vca_period(2, 30 * US),
        _tracks_vca_period(3, 30 * US),
        _tracks_vca_period(4, 30 * US),
        Claim("h5 max", "<= 440 us variation", lambda r: r.histograms[5].max(),
              "{0} ns", band=(-inf, H5_CEILING)),
        # h6 on the quiet ring is unimodal and tight around copy+code.
        Claim("h6 modes", "one: copy + code",
              lambda r: len(r.histograms[6].modes(min_separation=2 * MS)), band=(1, 1)),
        Claim("h6 primary mode", "copy + code (2600us in Figure 5-2)",
              lambda r: r.histograms[6].primary_mode(), "{0} ns",
              band=near(2_500 * US, 400 * US)),
    ),
)

HISTOGRAMS_B = Entry(
    name="histograms_case_b",
    title="Histograms 1-7, Test Case B",
    runner=run_test_case_b, **TEST_B_RUN,
    table=_histogram_table,
    claims=(
        # The interrupt source does not care about system load.
        _tracks_vca_period(1, 20 * US),
        # Handler entry jitter grows under load but stays within the bound.
        Claim("h5 max", "<= 440 us variation", lambda r: r.histograms[5].max(),
              "{0} ns", band=(-inf, H5_CEILING)),
        # The loaded case delays transmissions: h3's spread far exceeds h2's.
        Claim("h3 std - h2 std", "queued rather than sent immediately",
              lambda r: r.histograms[3].std() - r.histograms[2].std(), "{0:.0f} ns",
              band=(above(0), inf)),
        # Deliveries still average one packet per 12ms (no sustained loss).
        _tracks_vca_period(4, 50 * US),
    ),
)


# --- Sections 1 and 2: the stock path, copy counts, CD audio ---
def _rate_table(results) -> tuple[list[str], list[list[str]]]:
    rows = [
        [f"{rate // 1000} KB/s", f"{r.delivered_fraction * 100:.1f}%",
         f"{r.glitch_rate_per_sec():.2f}/s",
         f"{r.achieved_bytes_per_sec() / 1000:.1f} KB/s",
         "works" if r.works() else "FAILS"]
        for rate, r in sorted(results.items())
    ]
    return ["offered rate", "delivered", "glitches", "achieved", "verdict"], rows


BASELINE_RATES = Entry(
    name="baseline_rates",
    title="Section 1: the stock UNIX relay (user-level process, UDP/IP)",
    runner=run_rate_comparison, seed=3, duration_ns=25 * SEC,
    table=_rate_table,
    claims=(
        Claim("16 KB/s works", "worked extremely well",
              lambda r: r[16_000].works(), band=(1, 1)),
        Claim("16 KB/s glitches", "worked extremely well",
              lambda r: r[16_000].glitches, band=(0, 0)),
        Claim("150 KB/s works", "failed completely",
              lambda r: r[150_000].works(), band=(0, 0)),
        # "failed completely": sustained, audible glitching.
        Claim("150 KB/s glitch rate", "failed completely",
              lambda r: r[150_000].glitch_rate_per_sec(), "{0:.2f}/s",
              band=(above(1.0), inf)),
    ),
)


def _copies_table(measured) -> tuple[list[str], list[list[str]]]:
    rows = [
        [m.path.value, f"{m.model.cpu_copies} cpu + {m.model.dma_copies} dma",
         f"{m.cpu_per_packet:.2f} cpu + {m.dma_per_packet:.2f} dma",
         "yes" if m.matches_model() else "NO"]
        for m in measured
    ]
    return ["transfer path", "model", "measured", "match"], rows


# Rows in measure_all's order: user process, direct driver, pointer
# passing; with a VCA source without DMA, 4+1, 2+1 and 1+1 (CPU+DMA) copies.
COPY_COUNTS = Entry(
    name="copy_counts",
    title="Section 2: data copies per packet, device to device "
    "(VCA source has no DMA; Token Ring adapter does)",
    runner=measure_all, seed=5, duration_ns=10 * SEC,
    table=_copies_table,
    claims=(
        Claim("user process matches the model", "as many as six and as few as four",
              lambda r: r[0].matches_model(), band=(1, 1)),
        Claim("direct driver matches the model", "eliminates two of the data copies",
              lambda r: r[1].matches_model(), band=(1, 1)),
        Claim("pointer passing matches the model", "only one copy can be eliminated",
              lambda r: r[2].matches_model(), band=(1, 1)),
        Claim("CPU copies direct transfer removes", "two",
              lambda r: round(r[0].cpu_per_packet - r[1].cpu_per_packet), band=(2, 2)),
        Claim("CPU copies pointer passing removes", "one (one device has DMA)",
              lambda r: round(r[1].cpu_per_packet - r[2].cpu_per_packet), band=(1, 1)),
        # The paper's headline bounds, from the copy model itself.
        Claim("user process, most copies (model)", "as many as six",
              lambda _r: paper_claims()["user_process_max_total"], band=(6, 6)),
        Claim("user process, fewest copies (model)", "as few as four",
              lambda _r: paper_claims()["user_process_min_total"], band=(4, 4)),
        Claim("user process, CPU copies (model)", "always four copies made by the CPU",
              lambda _r: paper_claims()["user_process_cpu"], band=(4, 4)),
        Claim("pointer passing, both DMA, CPU copies (model)", "none",
              lambda _r: paper_claims()["pointer_passing_cpu"], band=(0, 0)),
    ),
)


def _cd_audio_table(r) -> tuple[list[str], list[list[str]]]:
    stats, tracker = r.session.stats, r.session.sink_tracker
    lost = f"{tracker.lost_packets} / {tracker.duplicates} / {tracker.reordered}"
    return _values(
        ["packets delivered", str(stats.delivered)],
        ["achieved rate", f"{stats.throughput_bytes_per_sec() / 1000:.1f} KB/s"],
        ["lost / duplicated / reordered", lost],
        ["max source-to-sink latency", f"{stats.max_latency_ns() / MS:.1f} ms"],
        ["playout buffer", f"{r.buffer.capacity_bytes} B"],
        ["discernible glitches", str(r.buffer.glitches)],
    )


CD_AUDIO = Entry(
    name="cd_audio",
    title="CD-quality audio (176.4 KB/s) over CTMSP, private ring",
    runner=play_cd_audio, seed=5, duration_ns=60 * SEC,
    table=_cd_audio_table,
    claims=(
        Claim("achieved rate", "176.4KBytes/sec",
              lambda r: r.session.stats.throughput_bytes_per_sec(), "{0:.0f} B/s",
              band=(above(0.99 * CD_AUDIO_MEDIUM.bytes_per_sec), inf)),
        # A sub-25KB buffer absorbs all delivery jitter.
        Claim("playout buffer", "under 25KBytes (Section 6)",
              lambda r: r.buffer.capacity_bytes, "{0} B", band=(-inf, below(25_000))),
        Claim("discernible glitches", "no discernible glitches",
              lambda r: r.buffer.glitches, band=(0, 0)),
    ),
)


# --- Sections 4 and 5.2: MAC frames, Ring Purge, the measurement tools ---
MAC_FRAME_OVERHEAD = Entry(
    name="mac_frame_overhead",
    title="Section 4: hypothetical host-visible MAC frame load "
    "(paper: 50-250 interrupts/s across the 0.2-1.0% band)",
    runner=measure_mac_band, seed=4, duration_ns=30 * SEC,
    table=lambda results: (
        ["MAC utilization", "interrupts", "CPU overhead"],
        [[f"{util * 100:.1f}%", f"{per_sec:.0f}/s", f"{cpu * 100:.2f}%"]
         for util, per_sec, cpu in results],
    ),
    claims=(
        # The paper's arithmetic: 0.2% -> ~50/s, 1.0% -> ~250/s.
        Claim("interrupts at 0.2% MAC utilization", "50/s",
              lambda r: r[0][1], "{0:.0f}/s", band=(35, 70)),
        Claim("interrupts at 1.0% MAC utilization", "250/s",
              lambda r: r[-1][1], "{0:.0f}/s", band=(180, 320)),
        # The monotone cost relationship that makes the mode "unacceptable"
        # for catching ~20 purges/day: >= 1.5% of the CPU for nothing.
        Claim("CPU overhead, 1.0% over 0.2%", "an unacceptable amount of overhead",
              lambda r: r[-1][2] / r[0][2], "{0:.1f}x", band=(above(4), inf)),
        Claim("CPU overhead at 1.0%", "an unacceptable amount of overhead",
              lambda r: r[-1][2], "{0:.2%}", band=(0.015, inf)),
    ),
)

RING_PURGE_STOCK = Entry(
    name="ring_purge_stock",
    title="Ring Purge with the stock adapter (no purge indication)",
    runner=lambda duration_ns, seed: run_purge_experiment(False, duration_ns, seed),
    seed=6, duration_ns=16 * SEC,
    table=lambda r: _values(
        ["purges issued", str(r.purges)],
        ["frames lost on the wire", str(r.lost_on_ring)],
        ["gaps detected at sink", str(r.tracker.gaps)],
        ["duplicates at sink", str(r.tracker.duplicates)],
        ["stream loss fraction", f"{r.tracker.loss_fraction() * 100:.2f}%"],
    ),
    claims=(
        # The transmitter's driver never knew: stock firmware hides the purge.
        Claim("driver retransmissions", "no indication of the purge to the driver",
              lambda r: r.retransmits, band=(0, 0)),
        # Loss stays at the "safely ignore" level the paper accepted.
        Claim("stream loss fraction", "allow for the loss of a single packet",
              lambda r: r.tracker.loss_fraction(), "{0:.2%}",
              band=(-inf, below(0.02))),
    ),
)

RETRANSMIT = "the last packet that is still in the fixed DMA buffer"

RING_PURGE_RETRANSMIT = Entry(
    name="ring_purge_retransmit",
    title="Ring Purge with the hypothetical purge-interrupt adapter",
    runner=lambda duration_ns, seed: run_purge_experiment(True, duration_ns, seed),
    seed=6, duration_ns=16 * SEC,
    table=lambda r: _values(
        ["frames lost on the wire", str(r.lost_on_ring)],
        ["driver retransmissions", str(r.retransmits)],
        ["gaps at sink", str(r.tracker.gaps)],
        ["duplicates ignored at sink", str(r.tracker.duplicates)],
    ),
    claims=(
        # The driver retransmits "the last packet that is still in the fixed
        # DMA buffer" -- no data copy needed -- and the sink sees no gaps.
        Claim("packets lost at sink", RETRANSMIT,
              lambda r: r.tracker.lost_packets, band=(0, 0)),
        Claim("gaps at sink", RETRANSMIT, lambda r: r.tracker.gaps, band=(0, 0)),
    ),
)

MEASUREMENT_TOOLS = Entry(
    name="measurement_tools",
    title="Section 5.2: measurement tool error budgets",
    runner=run_tool_characterization, seed=9, duration_ns=30 * SEC,
    claims=(
        Claim("logic analyzer: VCA period deviation", "~500 ns",
              lambda t: t.deviation_ns, "{0} ns",
              band=(above(0), 2 * calibration.VCA_INTERRUPT_JITTER)),
        Claim("IRQ to handler entry, worst (loaded)", "<= 440 us variation",
              lambda t: (max(t.entry_latencies) - calibration.IRQ_ENTRY_OVERHEAD) / US,
              f"{{0:.0f}} us over the {calibration.IRQ_ENTRY_OVERHEAD // US} us floor",
              band=(-inf, 440)),
        Claim("PC/AT spread around 12 ms", "+/- 120 us",
              lambda t: max(t.spread_lo_ns, t.spread_hi_ns),
              lambda t: f"-{t.spread_lo_ns / US:.0f} / +{t.spread_hi_ns / US:.0f} us",
              band=(-inf, calibration.PCAT_EXPECTED_SPREAD
                    + calibration.VCA_INTERRUPT_JITTER + 5 * US)),
        Claim("PC/AT service loop", "60 us worst case",
              lambda _t: calibration.PCAT_LOOP_WORST_CASE // US, "{0} us (modeled)"),
        # Read: how many pseudo-driver stamps fall off the 122us clock grid.
        Claim("pseudo-driver clock granularity", "122 us",
              lambda t: sum(s % calibration.RTPC_CLOCK_GRANULARITY != 0 for s in t.stamps),
              f"{calibration.RTPC_CLOCK_GRANULARITY // US} us (all stamps quantized)",
              band=(0, 0)),
    ),
)


# --- Section 6 and the ablations ---
BUFFER_SIZING = Entry(
    name="buffer_sizing",
    title="Section 6: playout buffer sizing for 150 KB/s CTMSP",
    runner=lambda duration_ns, seed: run_buffer_sizing(
        run_test_case_b(duration_ns, seed)),
    **TEST_B_RUN,
    claims=(
        # The headline conclusion: the paper's sizing is under 25 KB, and a
        # buffer in that class rides out real insertion outages.
        Claim("paper sizing: 150KB/s x 130ms worst case", "< 25000 B",
              lambda r: r.paper_bytes, "{0} B", band=(-inf, below(25_000))),
        Claim("measured worst delivery gap", "120-130 ms (two insertions)",
              lambda r: r.worst_gap_ns / MS, "{0:.0f} ms"),
        Claim("worst cumulative drawdown (measured)", "-",
              lambda r: r.drawdown_bytes, "{0} B"),
        # The same order as the paper's bound.
        Claim("buffer sized for the measured drawdown", "-",
              lambda r: r.sized.capacity_bytes, "{0} B", band=(-inf, below(60_000))),
        Claim("glitches with that buffer", "0 (conclusion: feasible)",
              lambda r: r.sized.glitches, band=(0, 0)),
        Claim("sizing for the 40ms ordinary worst case", "-",
              lambda r: r.small.capacity_bytes, "{0} B"),
        # The insertion outage is precisely why 40ms-sizing is not enough.
        Claim("glitches with only the 40ms-sized buffer", "(insertions would glitch)",
              lambda r: r.small.glitches, band=(1, inf)),
        Claim("peak buffer occupancy observed", "-",
              lambda r: r.sized.peak_occupancy, "{0} B"),
    ),
)

BASE = "baseline (Test B)"

ABLATIONS = Entry(
    name="ablations",
    title="Section 5.3 ablations (Test Case B, one switch flipped at a time)",
    runner=run_matrix, seed=1, duration_ns=25 * SEC,
    table=lambda summary: (TABLE_HEADERS, [e.as_row() for e in summary.values()]),
    claims=(
        # System-memory DMA buffers: every adapter DMA steals cycles from the
        # memory-intensive computation (Section 4's argument, its scenario).
        Claim("compute done, DMA buffers in system memory / baseline",
              "will degrade the execution speed of both",
              lambda s: s["fixed DMA buffers in system memory"].compute_chunks
              / s[BASE].compute_chunks, band=(-inf, below(0.97))),
        # Per-packet header recomputation adds its fixed cost to every
        # packet's floor (Section 3's argument for the precomputed header).
        Claim("h6 min, header recomputed - baseline", "precomputed Token Ring header",
              lambda s: s["recompute TR header per packet"].h6_min - s[BASE].h6_min,
              band=(100 * US, inf)),
        # Without driver priority, CTMSP queues behind ARP/IP locally: the
        # transmit-path tail grows.
        Claim("h6 p95, no driver priority - baseline", "priority above ARP/IP",
              lambda s: s["no driver priority for CTMSP"].h6_p95 - s[BASE].h6_p95,
              band=(0, inf)),
    ),
)


# --- Extensions: the paper has no number for these ---
RING_PRIORITY_HEAVY = Entry(
    name="ring_priority_heavy",
    title="Ring media priority under a compile storm (~45% wire load)",
    runner=run_ring_priority, seed=6, duration_ns=15 * SEC,
    table=lambda r: (
        ["configuration", "mean CTMSP token wait"],
        [["priority 4 (CTMSP above all)", f"{r[4].token_wait_ns / US:.0f} us"],
         ["priority 0 (ordinary traffic)", f"{r[0].token_wait_ns / US:.0f} us"]],
    ),
    claims=(
        # The priority keeps CTMSP's token access delay flat; without it the
        # wait grows severalfold.
        Claim("token wait, priority 0 over priority 4", "-",
              lambda r: r[0].token_wait_ns / r[4].token_wait_ns, "{0:.2f}x",
              band=(above(1.3), inf)),
    ),
)


def _sweep_table(points) -> tuple[list[str], list[list[str]]]:
    rows = [
        [f"{load:.1f}x", f"{p.util * 100:.0f}%", f"{p.delayed * 100:.0f}%",
         f"{p.h6_p95 / US:.0f}", f"{p.h7_p95 / US:.0f}", f"{p.h7_max / MS:.1f} ms",
         str(p.lost)]
        for load, p in points.items()
    ]
    columns = ["load", "ring util", "delayed pkts", "h6 p95(us)",
               "h7 p95(us)", "h7 max", "lost"]
    return columns, rows


def _worst_step(points) -> float:
    delayed = [p.delayed for p in points.values()]
    return min(b - a for a, b in zip(delayed, delayed[1:]))


LOAD_SWEEP = Entry(
    name="load_sweep",
    title="Extension: CTMSP service quality vs background load "
    "(1.0x is Test Case B's 'normal loading')",
    runner=run_load_sweep, seed=5, duration_ns=20 * SEC,
    table=_sweep_table,
    claims=(
        # Silent ring: essentially nothing is delayed.
        Claim("delayed at 0.0x", "-", lambda p: p[0.0].delayed, "{0:.1%}",
              band=(-inf, below(0.05))),
        # Load monotonically increases the delayed fraction.
        Claim("delayed, change to the next load (worst)", "-", _worst_step,
              "{0:+.3f}", band=(-0.02, inf)),
        Claim("delayed, 2.0x - 0.5x", "-", lambda p: p[2.0].delayed - p[0.5].delayed,
              band=(above(0.1), inf)),
        # The transmit-path tail grows severalfold across the sweep.
        Claim("h6 p95, 2.0x over 0.0x", "-", lambda p: p[2.0].h6_p95 / p[0.0].h6_p95,
              band=(above(2), inf)),
        # But the stream never loses a packet: CTMSP's guarantees hold, the
        # playout buffer just needs to cover a longer tail.
        Claim("lost at any load", "-", lambda p: max(x.lost for x in p.values()),
              band=(0, 0)),
    ),
)


def _stream_table(results) -> tuple[list[str], list[list[str]]]:
    rows = []
    for n, data in results.items():
        streams = data["streams"]
        rows.append([
            str(n), f"{data['ring_util'] * 100:.0f}%",
            f"{min(s['fraction'] for s in streams) * 100:.1f}%",
            f"{max(s['worst_latency_ns'] for s in streams) / MS:.1f} ms",
            str(max(s["queue_peak"] for s in streams)),
        ])
    columns = ["streams", "ring util", "worst delivery", "worst latency", "tx queue peak"]
    return columns, rows


def _one_or_two(results) -> list[dict]:
    return [s for n in (1, 2) for s in results[n]["streams"]]


MULTI_STREAM = Entry(
    name="multi_stream",
    title="Extension: concurrent 166 KB/s CTMSP streams on one 4 Mbit ring",
    runner=run_stream_sweep, seed=21, duration_ns=20 * SEC,
    table=_stream_table,
    claims=(
        # One and two streams fit: full delivery, bounded latency.
        Claim("worst delivery, one or two streams", "-", lambda r: min(
            s["fraction"] for s in _one_or_two(r)), band=(above(0.99), inf)),
        Claim("worst latency, one or two streams", "-", lambda r: max(
            s["worst_latency_ns"] for s in _one_or_two(r)), band=(-inf, below(60 * MS))),
        # Two streams already use most of the wire.
        Claim("ring utilization, two streams", "-",
              lambda r: r[2]["ring_util"], "{0:.0%}", band=(above(0.60), inf)),
        # Three streams exceed the ring: queues grow without bound and
        # delivery or latency collapses for at least one stream.
        Claim("three streams overload the ring", "-", lambda r: any(
            s["fraction"] < 0.97 or s["worst_latency_ns"] > 150 * MS or s["queue_peak"] > 20
            for s in r[3]["streams"]), band=(1, 1)),
    ),
)

MODEL_VALIDATION = Entry(
    name="model_validation",
    title="Lazy vs hop-level Token Ring model "
    f"(tolerance {AGREEMENT_TOLERANCE_NS / 1000:.1f} us = one "
    "rotation of phase uncertainty)",
    # Three random 50-frame workloads, seeded from ``seed`` on.
    runner=lambda _duration_ns, seed: [
        validate(s, n_frames=50) for s in range(seed, seed + 3)],
    seed=1, duration_ns=None,
    table=lambda results: (
        ["workload", "frames", "max skew", "mean skew", "detailed events", "lazy events"],
        [[f"workload {i}", str(r.frames), f"{r.max_delivery_skew_ns / 1000:.1f} us",
          f"{r.mean_delivery_skew_ns / 1000:.2f} us", f"{r.detailed_token_hops}",
          f"~{r.lazy_events_estimate}"]
         for i, r in enumerate(results, start=1)],
    ),
    claims=(
        # Mean skew is a small fraction of the tolerance.
        Claim("mean delivery skew (worst workload)", "-",
              lambda rs: max(r.mean_delivery_skew_ns for r in rs),
              band=(-inf, below(AGREEMENT_TOLERANCE_NS * 2))),
        # Worst case: a sub-hop token-phase knife edge can flip the order of
        # two simultaneously pending frames of different sizes, skewing the
        # sorted sequences by up to one wire time (~5 ms for the largest
        # frame).  Beyond that, the models would truly disagree.
        Claim("max delivery skew", "-", lambda rs: max(r.max_delivery_skew_ns for r in rs),
              band=(-inf, 5_100_000)),
    ),
)

#: Every ``results/`` table by name.
ENTRIES = {
    entry.name: entry
    for entry in (
        FIG_5_2, FIG_5_3, FIG_5_4, HISTOGRAMS_A, HISTOGRAMS_B,
        BASELINE_RATES, COPY_COUNTS, CD_AUDIO,
        MAC_FRAME_OVERHEAD, RING_PURGE_STOCK, RING_PURGE_RETRANSMIT,
        MEASUREMENT_TOOLS, BUFFER_SIZING, ABLATIONS,
        RING_PRIORITY_HEAVY, LOAD_SWEEP, MULTI_STREAM, MODEL_VALIDATION,
    )
}
