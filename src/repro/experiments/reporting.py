"""Paper-style report tables.

Each benchmark prints (and writes under ``results/``) a table comparing the
paper's reported numbers with what the reproduction measured, in the paper's
own phrasing ("68% of the data points within 500 microseconds of 2600
microseconds", ...).
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.measure.histogram import Histogram
from repro.obs.metrics import format_table
from repro.sim.units import MS, US

#: Where reports are written (next to the repo's bench outputs).
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


def emit(name: str, text: str) -> None:
    """Print a report and persist it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")


def row(label: str, paper: str, measured: str) -> list[str]:
    return [label, paper, measured]


def failed_points_section(records: list[dict]) -> str:
    """The explicit casualty list a degraded campaign report carries.

    A fleet campaign that lost points after exhausting retries must say
    so -- loudly, with a replayable command per point -- rather than
    silently rendering a smaller report.  Each record carries ``label``
    (the point's coordinates), ``attempts``, ``error``, and ``replay``
    (the exact CLI invocation that re-runs just that point).
    """
    lines = [f"FAILED POINTS ({len(records)}) -- completed campaign is "
             "missing these runs:"]
    for rec in records:
        lines.append(
            f"  {rec['label']}  after {rec['attempts']} attempt(s): "
            f"{rec['error']}"
        )
        lines.append(f"    replay: {rec['replay']}")
    return "\n".join(lines)


def figure_5_2_report(h6: Histogram) -> str:
    """Test Case B, histogram 6 -- the bimodal transmit-path figure."""
    mean_main = 2600 * US
    rows = [
        row(
            "within 500us of 2600us",
            "68%",
            f"{h6.fraction_within(mean_main, 500 * US) * 100:.1f}%",
        ),
        row(
            "within 500us of 9400us",
            "15%",
            f"{h6.fraction_within(9400 * US, 500 * US) * 100:.1f}%",
        ),
        row(
            "secondary concentration 8.4-10.4ms",
            "~15% (paper band 8.9-9.9ms)",
            f"{h6.fraction_between(8400 * US, 10400 * US) * 100:.1f}%",
        ),
        row(
            "between 2800us and 9300us",
            "16.5%",
            f"{h6.fraction_between(2800 * US, 9300 * US) * 100:.1f}%",
        ),
        row(
            "tails beyond 14000us",
            "~2% total tails to 14000us",
            f"{(1 - h6.fraction_between(0, 14_000 * US)) * 100:.2f}%",
        ),
        row("primary mode", "2600us", f"{h6.primary_mode() / US:.0f}us"),
        row("samples", "(117-minute run)", str(h6.count)),
    ]
    table = format_table(
        "Figure 5-2: VCA handler entered to just prior to transmission "
        "(Test Case B)",
        ["quantity", "paper", "measured"],
        rows,
    )
    return table + "\n\n" + Histogram(
        h6.samples, name="histogram 6 (Test B)", bin_width=500 * US
    ).to_ascii(width=48, max_rows=30)


def figure_5_3_report(h7: Histogram) -> str:
    """Test Case A, histogram 7 -- transmitter-to-receiver, quiet ring."""
    mean = round(h7.mean())
    rows = [
        row("minimum latency", "10740us", f"{h7.min() / US:.0f}us"),
        row("mean", "10894us", f"{mean / US:.0f}us"),
        row(
            "within 160us of mean",
            "98%",
            f"{h7.fraction_within(mean, 160 * US) * 100:.1f}%",
        ),
        row("right tail extends to", "14600us", f"{h7.max() / US:.0f}us"),
        row("samples", "-", str(h7.count)),
    ]
    table = format_table(
        "Figure 5-3: Transmitter to Receiver Times, Test Case A",
        ["quantity", "paper", "measured"],
        rows,
    )
    return table + "\n\n" + Histogram(
        h7.samples, name="histogram 7 (Test A)", bin_width=100 * US
    ).to_ascii(width=48, max_rows=25)


def figure_5_4_report(h7: Histogram, insertions: int, duration_min: float) -> str:
    """Test Case B, histogram 7 -- loaded ring, with ring-insertion outliers."""
    peak = h7.primary_mode()
    outliers = h7.count_between(100 * MS, 140 * MS)
    rows = [
        row("minimum latency", "10750us", f"{h7.min() / US:.0f}us"),
        row("peak", "10900us", f"{peak / US:.0f}us"),
        row(
            "within 160us of peak",
            "76%",
            f"{h7.fraction_within(peak, 160 * US) * 100:.1f}%",
        ),
        row(
            "in 11060-15000us",
            "21.5%",
            f"{h7.fraction_between(11_060 * US, 15_000 * US) * 100:.1f}%",
        ),
        row(
            "in 15000-40050us",
            "2.49%",
            f"{h7.fraction_between(15_000 * US, 40_050 * US) * 100:.2f}%",
        ),
        row(
            "points in 100-140ms (ring insertions)",
            "2 in 117 min",
            f"{outliers} in {duration_min:.0f} min ({insertions} insertions)",
        ),
        row("samples", "-", str(h7.count)),
    ]
    table = format_table(
        "Figure 5-4: Transmitter to Receiver Times, Test Case B",
        ["quantity", "paper", "measured"],
        rows,
    )
    return table + "\n\n" + Histogram(
        h7.samples, name="histogram 7 (Test B)", bin_width=500 * US
    ).to_ascii(width=48, max_rows=30)


def histogram_summary_table(histograms: dict[int, Histogram], case: str) -> str:
    """Histograms 1..7 summary for one test case."""
    rows = []
    for i in sorted(histograms):
        h = histograms[i]
        if h.count == 0:
            rows.append([h.name, "0", "-", "-", "-", "-"])
            continue
        s = h.summary()
        rows.append(
            [
                h.name,
                str(h.count),
                f"{s['mean_us']:.0f}",
                f"{s['std_us']:.0f}",
                f"{s['min_us']:.0f}",
                f"{s['max_us']:.0f}",
            ]
        )
    return format_table(
        f"Histograms 1-7, {case}",
        ["histogram", "n", "mean(us)", "std(us)", "min(us)", "max(us)"],
        rows,
    )
