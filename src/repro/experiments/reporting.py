"""Where reports go, and the casualty list of a degraded campaign.

Each benchmark prints (and writes under ``results/``) a table comparing the
paper's reported numbers with what the reproduction measured; every such
table is rendered from the claim table in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

import os

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
