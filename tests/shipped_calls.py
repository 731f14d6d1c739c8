"""List the ``src/repro`` functions that no shipped run executes.

    python tests/shipped_calls.py          (or ``make reach``; a few minutes)

``tests/test_reachability.py`` finds definitions that no shipped file
*names*.  A name that also occurs for another reason (``process``,
``random``, ``describe``, or a mention in an import) passes that gate
while the code behind it never runs.  This script measures calls
instead: it runs every shipped entry point (:func:`runs`) with a
``sitecustomize`` on ``PYTHONPATH`` that records, through
``sys.setprofile``, the code object of every function that starts.  A
process writes its record at interpreter exit, and a forked fleet worker
writes its own before ``os._exit``, so worker-side code counts as run.

It then lists every ``def`` in ``src/repro`` whose code never started,
grouped by file, each with the class docs/ANALYSIS.md gives it under
"Never-run functions".  It exits 1 if a listed function has no class
there, or if a classified function now runs; 0 otherwise.  The file is
not named ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ANALYSIS_DOC = REPO_ROOT / "docs" / "ANALYSIS.md"

#: Records, through ``sys.setprofile``, the code object of every function
#: call (and of every caller of a builtin) in this process, and writes
#: ``filename<TAB>first line`` for each one under ``src/repro`` at exit.
#: ``{record_dir}`` and ``{package}`` are filled in by :func:`record`.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    _add(frame.f_code)


def _flush():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = sorted({{
        f"{{code.co_filename}}\\t{{code.co_firstlineno}}"
        for code in list(_seen) if code.co_filename.startswith({package!r})
    }})
    path = os.path.join({record_dir!r}, f"{{os.getpid()}}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\\n".join(lines))


_real_exit = os._exit


def _exit(status):
    # A forked multiprocessing child leaves through os._exit, which skips
    # atexit.
    try:
        _flush()
    finally:
        _real_exit(status)


os._exit = _exit
atexit.register(_flush)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def _repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def runs(tmp: Path) -> list[tuple[str, list[str]]]:
    """The shipped entry points: every Makefile recipe but ``bench-lint``
    (it rewrites the committed ``BENCH_lint.json``; the lint runs here
    cover its code), every CLI command and option, every example and every
    perfbench workload.  Sizes are the smallest that take each path."""

    def state(name: str) -> list[str]:
        return ["--state-dir", str(tmp / name)]

    fleets = [
        ("chaos fleet jobs=1", _repro("chaos", "--jobs", "1", "--seeds", "2", "--seconds", "1",
                                      "--intensities", "1.0", *state("chaos1"))),
        ("chaos fleet jobs=2", _repro("chaos", "--jobs", "2", "--seeds", "2", "--seconds", "1",
                                      "--intensities", "1.0", *state("chaos2"))),
        ("chaos fleet resume", _repro("chaos", "--jobs", "2", "--seeds", "2", "--seconds", "1",
                                      "--intensities", "1.0", "--resume", *state("chaos2"))),
        ("failover fleet jobs=1", _repro("chaos", "--scenario", "failover", "--jobs", "1",
                                         "--seeds", "2", "--seconds", "2", *state("fo1"))),
        ("failover fleet jobs=2", _repro("chaos", "--scenario", "failover", "--jobs", "2",
                                         "--seeds", "2", "--seconds", "2", *state("fo2"))),
        ("ablate fleet jobs=1", _repro("ablate", "--jobs", "1", "--seconds", "1", *state("abl1"))),
        ("ablate fleet jobs=2", _repro("ablate", "--jobs", "2", "--seconds", "1", *state("abl2"))),
    ]
    fleet_views = [
        (f"fleet {action} {' '.join(extra)} {name}".strip(),
         _repro("fleet", action, *extra, *state(name)))
        for name in ("chaos2", "fo1", "abl1")
        for action, extra in (("status", ()), ("rollup", ()), ("rollup", ("--json",)),
                              ("watch", ("--once",)))
    ]
    lint = ["src/repro", "--baseline", "lint-baseline.json"]
    cache = ["--cache", str(tmp / "lint-cache.json")]
    commands = [
        ("pytest benchmarks/", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "benchmarks/"]),
        ("chaos --smoke", _repro("chaos", "--smoke")),
        ("chaos failover --smoke", _repro("chaos", "--scenario", "failover", "--smoke")),
        ("chaos", _repro("chaos", "--seconds", "1", "--intensities", "1.0")),
        ("chaos failover", _repro("chaos", "--scenario", "failover", "--seconds", "2")),
        ("ablate", _repro("ablate", "--seconds", "1")),
        *fleets,
        *fleet_views,
        ("lint cold", _repro("lint", *lint, "--no-cache")),
        ("lint cache write", _repro("lint", *lint, *cache)),
        ("lint warm", _repro("lint", *lint, *cache)),
        ("lint --json", _repro("lint", *lint, "--json", "--no-cache")),
        ("lint --write-baseline", _repro("lint", "src/repro", "--no-cache", "--write-baseline",
                                         str(tmp / "baseline.json"))),
        ("list", _repro("list")),
        ("quickstart", _repro("quickstart", "--seconds", "1")),
        ("trace", _repro("trace", "--seed", "7", "--seconds", "1", "--out", str(tmp / "t.json"))),
        ("trace --profile-only", _repro("trace", "--seconds", "1", "--profile-only", "ctmsp",
                                        "--out", str(tmp / "t1.json"))),
        ("metrics", _repro("metrics", "--seconds", "1")),
        ("metrics --json", _repro("metrics", "--seconds", "1", "--case", "b", "--json")),
        ("histograms a", _repro("histograms", "a", "--seconds", "2")),
        ("histograms b", _repro("histograms", "b", "--seconds", "2")),
        ("fig5-2", _repro("fig5-2", "--seconds", "2")),
        ("fig5-3", _repro("fig5-3", "--seconds", "2")),
        ("fig5-4", _repro("fig5-4", "--minutes", "1")),
        ("baseline", _repro("baseline", "--seconds", "1")),
        ("copies", _repro("copies", "--seconds", "1")),
    ]
    commands += [
        (f"example {path.name}", [sys.executable, str(path.relative_to(REPO_ROOT))])
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
    ]
    commands += [
        (f"perfbench {workload}", [sys.executable, "perfbench/run.py", "--workload", workload,
                                   "--seed", "1", "--seconds", "1", "--trace", "0"])
        for workload in ("paper_loaded", "chaos_fleet", "failover_churn", "lint_tree")
    ]
    return commands


def record() -> set[tuple[str, int]]:
    """Run every entry point; the ``(file, first line)`` of each code
    object under ``src/repro`` that started in any process."""
    package = str(SRC / "repro") + os.sep
    started: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="shipped-calls-") as tmp_name:
        tmp = Path(tmp_name)
        (tmp / "site").mkdir()
        (tmp / "calls").mkdir()
        (tmp / "site" / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(record_dir=str(tmp / "calls"), package=package),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp / "site"), str(SRC)]))
        for label, argv in runs(tmp):
            print(f"run  {label}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"{label} failed ({done.returncode}):\n{done.stderr[-2000:]}")
        for path in (tmp / "calls").iterdir():
            for line in path.read_text(encoding="utf-8").splitlines():
                filename, first = line.split("\t")
                started.add((filename, int(first)))
    return started


def definitions() -> list[tuple[str, str, int, int]]:
    """``(file, qualname, first line, line count)`` of every ``def`` in
    ``src/repro``; the first line is that of the first decorator, as in
    ``co_firstlineno``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((str(path), prefix + child.name, first,
                                  child.end_lineno - first + 1))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def classified() -> dict[str, str]:
    """``relpath::qualname`` -> class, from the bullet lists under the
    "Never-run functions" heading of docs/ANALYSIS.md: one ``### class``
    heading each, then one ``- `relpath` `qualname`...`` bullet per
    function."""
    text = ANALYSIS_DOC.read_text(encoding="utf-8")
    section = text.partition("## Never-run functions")[2].split("\n## ", 1)[0]
    classes, current = {}, None
    for line in section.splitlines():
        if line.startswith("### "):
            current = line[4:].strip()
        elif (match := re.match(r"- `([^`]+\.py)`((?: `[^`]+`,?)+)", line)) and current:
            for name in re.findall(r"`([^`]+)`", match.group(2)):
                classes[f"{match.group(1)}::{name}"] = current
    return classes


def main() -> int:
    started = record()
    classes = classified()
    found = definitions()
    never = [d for d in found if (d[0], d[2]) not in started]
    listed, current = set(), None
    for filename, qualname, first, count in never:  # grouped: one file at a time
        rel = str(Path(filename).relative_to(SRC))
        if rel != current:
            print(rel)
            current = rel
        name = f"{rel}::{qualname}"
        listed.add(name)
        print(f"  {first:5d}  {qualname}  ({count} lines)  {classes.get(name, 'UNCLASSIFIED')}")
    print(f"\n{len(never)} of {len(found)} functions "
          f"({sum(d[3] for d in never)} lines) never ran")
    unclassified = sorted(listed - set(classes))
    stale = sorted(set(classes) - listed)
    for name in unclassified:
        print(f"no class in docs/ANALYSIS.md: {name}")
    for name in stale:
        print(f"classified in docs/ANALYSIS.md but ran or gone: {name}")
    return 1 if unclassified or stale else 0


if __name__ == "__main__":
    sys.exit(main())
