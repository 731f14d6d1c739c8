"""The claim table covers ``results/``, and its short runs reproduce it.

``results/`` holds the paper reproduction's tables, and regenerating them
(``make reproduce``) must leave them byte-identical.  The entries below
take a few seconds at most, or share one run per test case (the Test Case
B run takes about ten), so every test run checks them against the committed
files, rendered from the claim table without writing to ``results/``.
"""

import math
from pathlib import Path

import pytest

from repro.experiments import claims
from repro.experiments.claims import (
    BUFFER_SIZING,
    COPY_COUNTS,
    ENTRIES,
    FIG_5_2,
    FIG_5_3,
    FIG_5_4,
    HISTOGRAMS_A,
    HISTOGRAMS_B,
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

# Test Case B's entries first and together, then Test Case A's: one run each.
PINNED = [
    FIG_5_2,
    FIG_5_4,
    HISTOGRAMS_B,
    BUFFER_SIZING,
    FIG_5_3,
    HISTOGRAMS_A,
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


def test_each_test_case_is_one_run(monkeypatch):
    """Figures 5-2 and 5-4, histograms 1-7 and Section 6 read the one run
    of their test case, as in the paper, and no reader changes it."""
    runs, run_scenario = [], claims.run_scenario

    def counted(scenario):
        runs.append(scenario.name)
        return run_scenario(scenario)

    def contents(result):
        return result.stream.arrival_times[:], {
            i: h.samples[:] for i, h in result.histograms.items()}

    monkeypatch.setattr(claims, "run_scenario", counted)
    for entries in ((FIG_5_2, FIG_5_4, HISTOGRAMS_B), (FIG_5_3, HISTOGRAMS_A)):
        result = entries[0].run()
        before = contents(result)
        for entry in entries:
            assert entry.run() is result
            entry.report(result)
        assert contents(result) == before
    arrivals = FIG_5_2.run().stream.arrival_times
    sizing = BUFFER_SIZING.run()
    assert sizing.worst_gap_ns == max(y - x for x, y in zip(arrivals, arrivals[1:]))
    # Each test case ran at most once here (not at all if already cached).
    assert len(runs) == len(set(runs))


def test_every_results_table_is_an_entry():
    assert sorted(ENTRIES) == sorted(p.stem for p in RESULTS_DIR.glob("*.txt"))


def test_extensions_are_the_tables_without_paper_text():
    extensions = sorted(
        name for name, entry in ENTRIES.items()
        if all(c.paper == "-" for c in entry.claims)
    )
    assert extensions == ["load_sweep", "model_validation", "multi_stream", "ring_priority_heavy"]


def test_strict_band_ends_exclude_the_bound_itself():
    over = Claim("x", "-", float, band=(above(1.0), math.inf))
    under = Claim("x", "-", float, band=(-math.inf, below(25_000)))
    assert not over.holds(1.0) and over.holds(1.0000000000000002)
    assert not under.holds(25_000) and under.holds(24_999)
