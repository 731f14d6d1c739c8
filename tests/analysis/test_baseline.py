"""Baseline machinery: burn-down accounting, round-trips, stale entries."""

import json

import pytest

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.findings import Finding


def finding(file="src/repro/core/x.py", line=10, rule="CTMS201"):
    return Finding(
        file=file,
        line=line,
        col=0,
        rule=rule,
        severity="error",
        message="m",
        hint="h",
    )


def test_empty_baseline_everything_is_new():
    result = apply_baseline([finding()], {})
    assert len(result.new) == 1
    assert result.baselined == []
    assert result.stale == []


def test_baselined_findings_do_not_fail():
    baseline = {"src/repro/core/x.py": {"CTMS201": 2}}
    result = apply_baseline([finding(line=5), finding(line=9)], baseline)
    assert result.new == []
    assert len(result.baselined) == 2


def test_findings_beyond_allowance_are_new():
    baseline = {"src/repro/core/x.py": {"CTMS201": 1}}
    result = apply_baseline(
        [finding(line=5), finding(line=9), finding(line=30)], baseline
    )
    # The allowance covers the earliest finding; the two later ones fail.
    assert [f.line for f in result.baselined] == [5]
    assert [f.line for f in result.new] == [9, 30]


def test_allowance_is_per_file_and_rule():
    baseline = {"src/repro/core/x.py": {"CTMS201": 1}}
    result = apply_baseline(
        [finding(), finding(rule="CTMS103"), finding(file="src/repro/core/y.py")],
        baseline,
    )
    assert {(f.file, f.rule) for f in result.new} == {
        ("src/repro/core/x.py", "CTMS103"),
        ("src/repro/core/y.py", "CTMS201"),
    }


def test_stale_entries_reported():
    baseline = {"src/repro/core/gone.py": {"CTMS101": 3}}
    result = apply_baseline([], baseline)
    assert result.stale == [("src/repro/core/gone.py", "CTMS101")]


def test_write_then_load_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    written = write_baseline(
        [finding(line=5), finding(line=9), finding(rule="CTMS103")], path
    )
    assert written == {"src/repro/core/x.py": {"CTMS103": 1, "CTMS201": 2}}
    assert load_baseline(path) == written
    # And the file is valid, diff-stable JSON.
    assert json.loads(path.read_text()) == written


def test_load_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == {}


@pytest.mark.parametrize(
    "text",
    ['{"f.py": 3}', '{"f.py": {"CTMS101": [1]}}'],
    ids=["count-for-rules", "list-count"],
)
def test_malformed_entry_is_a_usage_error_not_a_traceback(tmp_path, capsys, text):
    from repro.cli import main

    path = tmp_path / "baseline.json"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match="'f.py' must be an object of rule -> int"):
        load_baseline(path)
    assert main(["lint", str(tmp_path), "--no-cache", "--baseline", str(path)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# v2 rules ride the same ratchet
# ----------------------------------------------------------------------
def test_v2_rule_ids_baseline_like_any_other():
    baseline = {"src/repro/core/x.py": {"CTMS111": 1, "CTMS212": 1}}
    result = apply_baseline(
        [finding(rule="CTMS111"), finding(rule="CTMS212"), finding(rule="CTMS211")],
        baseline,
    )
    assert [f.rule for f in result.new] == ["CTMS211"]
    assert {f.rule for f in result.baselined} == {"CTMS111", "CTMS212"}
    assert result.stale == []


def test_write_baseline_then_fix_source_rejects_stale_entry(tmp_path, capsys):
    """The full ratchet round-trip through the CLI.

    ``--write-baseline`` records today's debt; fixing the source then
    makes that allowance stale, and a stale allowance fails the gate --
    debt may only be deleted, never kept as headroom.
    """
    from repro.cli import main

    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    mod = pkg / "clock.py"
    mod.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    baseline_path = tmp_path / "baseline.json"
    cache = tmp_path / "cache.json"

    def lint(*extra):
        return main(
            ["lint", str(tmp_path / "repro"), "--cache", str(cache), *extra]
        )

    # 1. Record the debt.
    assert lint("--write-baseline", str(baseline_path)) == 0
    written = load_baseline(baseline_path)
    assert list(written.values()) == [{"CTMS103": 1}]

    # 2. Debt is allowed while it exists.
    assert lint("--baseline", str(baseline_path)) == 0

    # 3. Fix the source: the allowance goes stale and the gate fails.
    mod.write_text("def stamp():\n    return 42\n")
    assert lint("--baseline", str(baseline_path)) == 1
    out = capsys.readouterr().out
    assert "stale" in out

    # 4. Delete the stale entry (re-ratchet) and the gate is green again.
    assert lint("--write-baseline", str(baseline_path)) == 0
    assert load_baseline(baseline_path) == {}
    assert lint("--baseline", str(baseline_path)) == 0
