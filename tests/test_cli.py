"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_no_command_defaults_to_list(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_quickstart_runs(capsys):
    assert main(["quickstart", "--seconds", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out
    assert "0 lost" in out


def test_copies_runs(capsys):
    assert main(["copies", "--seconds", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    paths = ["user_process", "direct_driver", "pointer_passing"]
    matched = {row[0]: row[-1] for row in rows if row and row[0] in paths}
    assert matched == dict.fromkeys(paths, "yes")  # the table's match column


def test_fig5_3_runs(capsys):
    assert main(["fig5-3", "--seconds", "5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5-3" in out
    assert "10740us" in out  # the paper column


def test_histograms_requires_case():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["histograms"])


def test_histograms_runs(capsys):
    assert main(["histograms", "a", "--seconds", "3"]) == 0
    out = capsys.readouterr().out
    assert "Histograms 1-7" in out
    assert "h6" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    ("argv", "flag", "message"),
    [
        (["ablate", "--jobs", "1", "--seeds", "0"], "--seeds", "must be at least 1"),
        (["chaos", "--jobs", "1", "--seeds", "0"], "--seeds", "must be at least 1"),
        (["chaos", "--scenario", "failover", "--jobs", "1", "--seeds", "-2"],
         "--seeds", "must be at least 1"),
        (["fig5-2", "--seconds", "0"], "--seconds", "must be at least 1"),
        (["ablate", "--seconds", "-1"], "--seconds", "must be at least 1"),
        (["trace", "--seconds", "-1"], "--seconds", "must be at least 1"),
        (["fig5-4", "--minutes", "0"], "--minutes", "must be at least 1"),
        (["chaos", "--jobs", "-2", "--smoke"], "--jobs", "must be at least 0"),
        (["ablate", "--jobs", "-1"], "--jobs", "must be at least 0"),
        (["chaos", "--intensities", "-1", "--seconds", "1"], "--intensities",
         "must be at least 0"),
        (["chaos", "--intensities", "nan", "--seconds", "1"], "--intensities",
         "must be finite"),
        (["chaos", "--intensities", "inf", "--seconds", "1"], "--intensities",
         "must be finite"),
    ],
    ids=[
        "ablate", "chaos", "chaos-failover", "fig5-2-seconds",
        "ablate-seconds", "trace-seconds", "fig5-4-minutes", "chaos-jobs",
        "ablate-jobs", "chaos-intensities-negative", "chaos-intensities-nan",
        "chaos-intensities-inf",
    ],
)
def test_seeds_below_one_is_a_usage_error(
    argv, flag, message, capsys, tmp_path, monkeypatch
):
    """A seed, duration, worker count or intensity outside its range
    exits 2 before anything runs or is written (journal, trace file)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--seconds", "1", "--intensities", "1", "1.0"],
        ["chaos", "--jobs", "1", "--seconds", "1", "--intensities", "1", "1"],
    ],
    ids=["serial", "fleet"],
)
def test_duplicate_intensities_are_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    """A repeated intensity would print its section twice (serial) or
    crash on duplicate fleet point keys; both paths reject it up front."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--intensities: values must be distinct" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chaos", "--jobs", "1", "--smoke", "--seconds", "1"], "--smoke cannot"),
        (["chaos", "--seeds", "2", "--smoke", "--seconds", "1"], "--smoke cannot"),
        (["chaos", "--resume", "--smoke", "--seconds", "1"], "--smoke cannot"),
        (["chaos", "--smoke", "--intensities", "1"], "--smoke runs one fixed intensity"),
        (["chaos", "--scenario", "failover", "--seconds", "1", "--intensities", "1"],
         "--intensities applies only to --scenario survival"),
        (["chaos", "--smoke", "--seconds", "1"], "--smoke runs a fixed duration"),
        (["chaos", "--scenario", "failover", "--smoke", "--seconds", "8"],
         "--smoke runs a fixed duration"),
    ],
    ids=["smoke-jobs", "smoke-seeds", "smoke-resume", "smoke-intensities",
         "failover-intensities", "smoke-seconds", "failover-smoke-seconds"],
)
def test_ignored_chaos_flag_is_a_usage_error(argv, message, capsys, tmp_path, monkeypatch):
    """A flag the chosen path would silently ignore exits 2 before
    anything runs or is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"repro chaos: error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
@pytest.fixture
def lint_cwd(tmp_path, monkeypatch):
    """Run lint from ``tmp_path``, so the default summary cache lands there."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def dirty_tree(lint_cwd):
    """A tiny repro-shaped tree with one violation of each rule class."""
    pkg = lint_cwd / "repro"
    (pkg / "hardware").mkdir(parents=True)
    (pkg / "core").mkdir()
    (pkg / "hardware" / "adapter.py").write_text(
        "from repro.drivers.vca import VCADriver\n"
    )
    (pkg / "core" / "clocky.py").write_text(
        "import random\n"
        "import time\n"
        "def bad(sim, fn):\n"
        "    sim.schedule(1.5, fn)\n"
        "    return random.random() + time.time()\n"
    )
    return lint_cwd


def test_lint_requires_paths():
    with pytest.raises(SystemExit):
        main(["lint"])


@pytest.mark.parametrize(
    "name, why",
    [("src/rpro", "no such file or directory"), ("README.md", "not a directory or .py file")],
    ids=["missing", "not-python"],
)
def test_lint_bad_path_is_a_usage_error(lint_cwd, capsys, name, why):
    # A typo or a non-Python file must not pass the gate as "0 file(s)
    # scanned, clean".
    (lint_cwd / "README.md").write_text("# not python\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", name])
    assert excinfo.value.code == 2
    assert f"{name}: {why}" in capsys.readouterr().err


def test_lint_clean_tree_exits_zero(lint_cwd, capsys):
    (lint_cwd / "ok.py").write_text("X = 1\n")
    assert main(["lint", str(lint_cwd)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) scanned, clean" in out


def test_lint_dirty_tree_exits_one_with_diagnostics(dirty_tree, capsys):
    assert main(["lint", str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    for rule in ("CTMS101", "CTMS103", "CTMS201", "CTMS301"):
        assert rule in out
    assert "4 new finding(s)" in out
    assert "fix:" in out  # every finding carries its hint


def test_lint_json_output_is_machine_readable(dirty_tree, capsys):
    import json

    assert main(["lint", str(dirty_tree), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_scanned"] == 2
    findings = payload["findings"]
    assert {f["rule"] for f in findings} == {
        "CTMS101",
        "CTMS103",
        "CTMS201",
        "CTMS301",
    }
    for f in findings:
        assert set(f) == {
            "file",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "hint",
        }
        assert f["file"].endswith(".py") and f["line"] >= 1
        assert f["severity"] in ("error", "warning")
    layering = next(f for f in findings if f["rule"] == "CTMS301")
    assert layering["file"].endswith("repro/hardware/adapter.py")
    assert layering["line"] == 1


def test_lint_baseline_forgives_and_ratchets(dirty_tree, capsys, tmp_path):
    baseline = tmp_path / "baseline.json"
    # Write the current debt as the baseline, then the run is green...
    assert main(["lint", str(dirty_tree), "--write-baseline", str(baseline)]) == 0
    assert main(["lint", str(dirty_tree), "--baseline", str(baseline)]) == 0
    assert "baselined finding(s) suppressed" in capsys.readouterr().out
    # ...until a *new* violation lands on top of the baselined ones.
    extra = dirty_tree / "repro" / "core" / "fresh.py"
    extra.write_text("def bad(sim, fn):\n    sim.timeout(2.5)\n")
    assert main(["lint", str(dirty_tree), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out and "CTMS201" in out


def test_lint_unreadable_baseline_is_usage_error(dirty_tree, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]\n")
    assert main(["lint", str(dirty_tree), "--baseline", str(bad)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_lint_listed_in_help(capsys):
    assert main(["list"]) == 0
    assert "lint" in capsys.readouterr().out
