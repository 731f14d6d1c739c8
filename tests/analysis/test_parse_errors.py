"""Unreadable sources: reported as parse errors, never a crash.

A file that is not valid UTF-8 used to escape the engine as a
``UnicodeDecodeError``; a file with a NUL byte fails inside the parser;
a directory named like a module cannot be read at all.  Every time the
file lands in ``parse_errors`` and the gate fails (exit 1) while every
other file is still linted, with or without the summary cache.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import iter_python_files, lint_source
from repro.analysis.v2 import run_lint_v2
from repro.cli import main

UNDECODABLE = b'x = "\xff"\n'
NUL_BYTE = b"x = 1\x00\n"


def tree_with(tmp_path, bad: bytes):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "good.py").write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    (pkg / "bad.py").write_bytes(bad)
    return tmp_path / "repro"


def error_names(report) -> list[str]:
    return [path.rsplit("/", 1)[-1] for path in report.parse_errors]


@pytest.mark.parametrize("bad", [UNDECODABLE, NUL_BYTE], ids=["non-utf8", "nul"])
def test_v1_reports_unreadable_file(tmp_path, bad):
    """The per-file (v1) rule set still covers every readable file: each
    finding ``lint_source`` gives a readable file on its own comes out of
    the whole-program run, next to the unreadable file's parse error."""
    root = tree_with(tmp_path, bad)
    report = run_lint_v2([root], cache_path=None)
    assert error_names(report) == ["bad.py"]
    assert report.files_scanned == 4
    per_file = [
        finding
        for file in iter_python_files([root])
        if file.name != "bad.py"
        for finding in lint_source(file.read_text(encoding="utf-8"), file.as_posix())
    ]
    assert [f.rule for f in per_file] == ["CTMS103"]
    assert report.findings == per_file
    assert not report.ok()


@pytest.mark.parametrize("bad", [UNDECODABLE, NUL_BYTE], ids=["non-utf8", "nul"])
def test_v2_without_cache_reports_unreadable_file(tmp_path, bad):
    report = run_lint_v2([tree_with(tmp_path, bad)], cache_path=None)
    assert error_names(report) == ["bad.py"]
    assert [f.rule for f in report.findings] == ["CTMS103"]
    assert not report.ok()


@pytest.mark.parametrize("bad", [UNDECODABLE, NUL_BYTE], ids=["non-utf8", "nul"])
def test_v2_with_cache_reports_unreadable_file(tmp_path, bad):
    root = tree_with(tmp_path, bad)
    cache = tmp_path / "cache.json"
    cold = run_lint_v2([root], cache_path=cache)
    warm = run_lint_v2([root], cache_path=cache)
    for report in (cold, warm):
        assert error_names(report) == ["bad.py"]
        assert [f.rule for f in report.findings] == ["CTMS103"]
        assert not report.ok()
    # The unreadable file is never cached; the three good ones are.
    assert warm.cache_hits == 3 and warm.reparsed == []


def test_v2_file_turning_unreadable_is_not_served_from_cache(tmp_path):
    root = tree_with(tmp_path, b"x = 1\n")
    cache = tmp_path / "cache.json"
    assert run_lint_v2([root], cache_path=cache).parse_errors == []
    (root / "core" / "bad.py").write_bytes(UNDECODABLE)
    report = run_lint_v2([root], cache_path=cache)
    assert error_names(report) == ["bad.py"]


def test_reports_a_directory_named_like_a_module(tmp_path):
    """``rglob("*.py")`` also yields directories; reading one is an OSError."""
    root = tree_with(tmp_path, b"x = 1\n")
    (root / "core" / "pkg.py").mkdir()
    report = run_lint_v2([root], cache_path=None)
    assert error_names(report) == ["pkg.py"]
    assert not report.ok()


# The ids are the names these cases had when ``repro lint`` ran two
# engines; they now cover the default run, which reads and writes the
# summary cache in the working directory, and a ``--no-cache`` run.
CACHE_MODES = pytest.mark.parametrize("flags", [[], ["--no-cache"]], ids=["v1", "v2"])


@CACHE_MODES
def test_cli_exits_1_on_undecodable_file(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    root = tree_with(tmp_path, UNDECODABLE)
    assert main(["lint", str(root), *flags]) == 1
    assert "bad.py: syntax error (unparseable file)" in capsys.readouterr().out


@CACHE_MODES
def test_cli_lints_a_tree_whose_simulator_does_not_parse(tmp_path, flags):
    """ctms-lint runs from the tree it lints, and loads none of the
    simulator, so a broken simulator module is a finding, not a crash."""
    src = Path(__file__).resolve().parents[2] / "src"
    copy = tmp_path / "src"
    shutil.copytree(src / "repro", copy / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "repro" / "core" / "control.py").write_text("def broken(:\n")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(copy / "repro"), *flags],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(copy)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1, done.stderr
    assert "core/control.py: syntax error (unparseable file)" in done.stdout
    assert "Traceback" not in done.stderr
