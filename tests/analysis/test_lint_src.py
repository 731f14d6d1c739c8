"""The lint gate: ctms-lint over ``src/`` must stay clean.

This is the CI teeth of the static pass (also reachable as ``make lint``).
The committed ``lint-baseline.json`` is empty -- any new determinism,
units, or layering violation in the library fails this test with the
engine's own diagnostics in the assertion message.
"""

from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline
from repro.analysis.v2 import run_lint_v2
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.lint
def test_src_tree_is_lint_clean(tmp_path, capsys):
    # The gate as ``make lint`` runs it: the CLI with the committed
    # baseline, once cold and once served from the summary cache.
    argv = [
        "lint",
        str(REPO_ROOT / "src" / "repro"),
        "--baseline",
        str(REPO_ROOT / "lint-baseline.json"),
        "--cache",
        str(tmp_path / "cache.json"),
    ]
    for _ in ("cold", "warm"):
        assert main(argv) == 0, capsys.readouterr().out


@pytest.mark.lint
def test_src_tree_is_lint_v2_clean():
    # Per-file rules plus the whole-program pass: interprocedural taint,
    # cross-module units and the suppression audit must all come back
    # clean over src/ (cache disabled so the gate never trusts a stale
    # summary).
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    report = run_lint_v2(
        [REPO_ROOT / "src" / "repro"], baseline, cache_path=None
    )
    assert report.files_scanned > 70
    assert report.ok(), "\n" + report.render_text()


@pytest.mark.lint
def test_committed_src_baseline_is_empty():
    # The satellite goal: src/ debt burned to zero.  Tests/examples may
    # carry a documented baseline, src/ may not.
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    assert not any(file.startswith("src/") for file in baseline)
