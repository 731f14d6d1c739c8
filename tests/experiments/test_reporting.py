"""Tests for the report formatting helpers and the figure reports."""

from types import SimpleNamespace

from repro.experiments import reporting
from repro.experiments.claims import FIG_5_2, FIG_5_3, FIG_5_4, HISTOGRAMS_A
from repro.measure.histogram import Histogram
from repro.obs.metrics import format_table
from repro.sim.units import MS, US


def test_format_table_aligns_columns():
    text = format_table(
        "Title", ["a", "bb"], [["1", "2"], ["333", "4"]]
    )
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[2] and "bb" in lines[2]
    # All data rows are equally wide (padded).
    assert len(lines[4]) == len(lines[5]) or lines[4].rstrip() != lines[5].rstrip()


def test_emit_writes_results_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    reporting.emit("unit_test_report", "hello world")
    out = capsys.readouterr().out
    assert "hello world" in out
    assert (tmp_path / "unit_test_report.txt").read_text() == "hello world\n"


def make_h7(n=1000, mean_us=10_800):
    import random

    rng = random.Random(0)
    return Histogram(
        [round(rng.gauss(mean_us, 50)) * US for _ in range(n)], name="h7"
    )


def test_figure_5_3_report_mentions_paper_numbers():
    text = FIG_5_3.render(make_h7())
    assert "10740us" in text
    assert "10894us" in text
    assert "98%" in text
    assert "histogram 7" in text


def test_figure_5_2_report_structure():
    import random

    rng = random.Random(1)
    samples = [round(rng.gauss(2600, 150)) * US for _ in range(680)]
    samples += [round(rng.gauss(9400, 300)) * US for _ in range(150)]
    samples += [round(rng.uniform(3000, 9000)) * US for _ in range(170)]
    text = FIG_5_2.render(Histogram(samples, name="h6"))
    assert "68%" in text and "15%" in text and "16.5%" in text
    assert "within 500us of 2600us" in text


def test_figure_5_4_report_counts_outliers():
    h = make_h7()
    h.add(120 * MS)
    h.add(128 * MS)
    text = FIG_5_4.render(h, minutes=6.0, insertions=2)
    assert "2 in 6 min (2 insertions)" in text
    assert "10750us" in text


def test_histogram_summary_table_handles_empty():
    text = HISTOGRAMS_A.report(SimpleNamespace(histograms={1: Histogram(name="empty-one")}))
    assert "empty-one" in text
    assert "Histograms 1-7, Test Case A" in text
