"""The claim table covers ``results/``, and its short runs reproduce it.

``results/`` holds the paper reproduction's tables, and regenerating them
(``make reproduce``) must leave them byte-identical.  The entries below
take a few seconds at most, so every test run checks them against the
committed files, rendered from the claim table without writing to
``results/``.
"""

import math
from pathlib import Path

import pytest

from repro.experiments.claims import (
    COPY_COUNTS,
    ENTRIES,
    FIG_5_2,
    FIG_5_3,
    MAC_FRAME_OVERHEAD,
    MEASUREMENT_TOOLS,
    MODEL_VALIDATION,
    RING_PRIORITY_HEAVY,
    RING_PURGE_RETRANSMIT,
    RING_PURGE_STOCK,
    Claim,
    above,
    below,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"

PINNED = [
    FIG_5_2,
    FIG_5_3,
    COPY_COUNTS,
    RING_PRIORITY_HEAVY,
    RING_PURGE_STOCK,
    MEASUREMENT_TOOLS,
    RING_PURGE_RETRANSMIT,
    MAC_FRAME_OVERHEAD,
    MODEL_VALIDATION,
]


@pytest.mark.parametrize("entry", PINNED, ids=[entry.name for entry in PINNED])
def test_committed_report_is_reproduced(entry):
    report = entry.report(entry.run())
    assert report + "\n" == (RESULTS_DIR / f"{entry.name}.txt").read_text()


def test_every_results_table_is_an_entry():
    assert sorted(ENTRIES) == sorted(p.stem for p in RESULTS_DIR.glob("*.txt"))


def test_extensions_are_the_tables_without_paper_text():
    extensions = sorted(name for name, entry in ENTRIES.items() if entry.extension)
    assert extensions == ["load_sweep", "model_validation", "multi_stream", "ring_priority_heavy"]


def test_strict_band_ends_exclude_the_bound_itself():
    over = Claim("x", "-", float, band=(above(1.0), math.inf))
    under = Claim("x", "-", float, band=(-math.inf, below(25_000)))
    assert not over.holds(1.0) and over.holds(1.0000000000000002)
    assert not under.holds(25_000) and under.holds(24_999)
