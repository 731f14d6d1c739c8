"""Paper-style report tables.

Each benchmark prints (and writes under ``results/``) a table comparing the
paper's reported numbers with what the reproduction measured.  The tables
for Figures 5-2, 5-3 and 5-4 are rendered from the claim table in
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

import os

from repro.measure.histogram import Histogram
from repro.obs.metrics import format_table

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
