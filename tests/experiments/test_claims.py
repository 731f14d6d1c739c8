"""The committed Figure 5-2 and 5-3 reports are what the code produces.

``results/`` holds the paper reproduction's tables, and regenerating them
(``make reproduce``) must leave them byte-identical.  These two figures
take a few seconds each, so every test run checks them against the
committed files, rendered from the claim table without writing to
``results/``.
"""

from pathlib import Path

import pytest

from repro.experiments.claims import FIG_5_2, FIG_5_3

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize(
    "name, figure", [("fig_5_2", FIG_5_2), ("fig_5_3", FIG_5_3)], ids=["fig_5_2", "fig_5_3"]
)
def test_committed_report_is_reproduced(name, figure):
    report = figure.report(figure.run())
    assert report + "\n" == (RESULTS_DIR / f"{name}.txt").read_text()
