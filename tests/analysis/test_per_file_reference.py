"""The per-file rules as a standing reference for the whole-program pass.

``repro lint`` runs one engine, ``run_lint_v2``, which applies every
per-file rule while it summarizes a module and then adds the
whole-program phases on top.  So everything ``lint_source`` reports for
a file on its own must also come out of a whole-program run over the
tree that holds it.  ``src/`` is clean, so the trees checked here are
the ones that carry findings (rule fixtures, benchmark scripts).
"""

from pathlib import Path

import pytest

from repro.analysis.engine import iter_python_files, lint_source
from repro.analysis.v2 import run_lint_v2

REPO_ROOT = Path(__file__).resolve().parents[2]


def per_file_findings(tree: str) -> set[tuple[str, int, str]]:
    out = set()
    for file in iter_python_files([tree]):
        path = file.as_posix()
        source = file.read_text(encoding="utf-8")
        out.update((f.file, f.line, f.rule) for f in lint_source(source, path))
    return out


@pytest.mark.lint
def test_whole_program_pass_reports_every_per_file_finding(monkeypatch):
    # Relative paths from the repository root: the display paths both
    # engines key their findings by.
    monkeypatch.chdir(REPO_ROOT)
    trees = ["tests", "benchmarks", "perfbench", "examples"]
    expected = set().union(*(per_file_findings(tree) for tree in trees))
    report = run_lint_v2(trees, cache_path=None)
    assert report.parse_errors == []
    reported = {(f.file, f.line, f.rule) for f in report.findings}
    assert expected, "the reference trees carry no per-file finding"
    assert sorted(expected - reported) == []
