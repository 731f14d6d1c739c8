"""Interprocedural determinism inference: CTMS111/112 end to end.

The headline fixture is the acceptance scenario: module A calls B,
B reads the wall clock, and the transitive taint is reported *at A's
call site* -- then removing B's clock read clears the finding through
the incremental engine with only the edited file re-analyzed.
"""

import textwrap
from pathlib import Path

from repro.analysis.graph import ProjectGraph, summarize_module
from repro.analysis.taint import check_taint, propagate_impurity
from repro.analysis.v2 import run_lint_v2


def summarize(source: str, path: str):
    return summarize_module(textwrap.dedent(source), path)


def build(*files: tuple[str, str]) -> ProjectGraph:
    return ProjectGraph([summarize(src, path) for path, src in files])


A_CALLS_B = """
from repro.core.b import read_sensor


def poll():
    return read_sensor()
"""

B_WITH_CLOCK = """
import time


def read_sensor():
    return time.time()
"""

B_CLEAN = """
def read_sensor():
    return 42
"""


def write_tree(root: Path, b_source: str) -> dict[str, Path]:
    pkg = root / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    files = {
        "a": pkg / "a.py",
        "b": pkg / "b.py",
    }
    files["a"].write_text(textwrap.dedent(A_CALLS_B))
    files["b"].write_text(textwrap.dedent(b_source))
    return files


# ----------------------------------------------------------------------
# direct propagation (graph-level, no engine)
# ----------------------------------------------------------------------
def test_transitive_wall_clock_flagged_at_callers_call_site():
    g = build(
        ("repro/core/a.py", A_CALLS_B),
        ("repro/core/b.py", B_WITH_CLOCK),
    )
    impure = propagate_impurity(g)
    assert "repro.core.b:read_sensor" in impure
    findings = [f for f in check_taint(g) if f.rule == "CTMS111"]
    at_call_site = [f for f in findings if f.file == "repro/core/a.py"]
    assert at_call_site, findings
    # A's call to read_sensor() sits on line 6 of the dedented source.
    assert at_call_site[0].line == 6
    assert "read_sensor" in at_call_site[0].message


def test_witness_chain_names_the_original_source():
    g = build(
        ("repro/core/a.py", A_CALLS_B),
        ("repro/core/b.py", B_WITH_CLOCK),
    )
    impure = propagate_impurity(g)
    assert "wall-clock" in impure["repro.core.b:read_sensor"]


def test_clean_callee_produces_no_taint():
    g = build(
        ("repro/core/a.py", A_CALLS_B),
        ("repro/core/b.py", B_CLEAN),
    )
    assert [f for f in check_taint(g) if f.rule == "CTMS111"] == []


def test_suppressed_source_is_cleansed():
    g = build(
        ("repro/core/a.py", A_CALLS_B),
        (
            "repro/core/b.py",
            """
            import time


            def read_sensor():
                return time.time()  # ctms-lint: disable=CTMS103
            """,
        ),
    )
    assert [f for f in check_taint(g) if f.rule == "CTMS111"] == []


def test_sanctioned_home_is_a_taint_boundary():
    # fleet.py is the process/wall-clock home: functions there are never
    # impure, and calls *into* them do not propagate taint outward.
    g = build(
        (
            "repro/experiments/fleet.py",
            """
            import time


            def deadline():
                return time.time()
            """,
        ),
        (
            "repro/experiments/runner.py",
            """
            from repro.experiments.fleet import deadline


            def supervise():
                return deadline()
            """,
        ),
    )
    assert [f for f in check_taint(g) if f.rule == "CTMS111"] == []


def test_scheduled_impure_callback_flagged_ctms112():
    g = build(
        (
            "repro/core/node.py",
            """
            import time


            def on_timer():
                return time.time()


            def arm(sim):
                sim.schedule(1_000, on_timer)
            """,
        ),
    )
    findings = [f for f in check_taint(g) if f.rule == "CTMS112"]
    assert len(findings) == 1
    # Anchored at the impure callback's def line, naming the arming site.
    assert findings[0].line == 5
    assert "arm" in findings[0].message or "schedule" in findings[0].message
    # The allocation-free tier arms callbacks just the same.
    g = build(
        (
            "repro/core/node.py",
            """
            import time


            def on_timer():
                return time.time()


            def arm(sim):
                sim.schedule_fast(1_000, on_timer)
            """,
        ),
    )
    assert [f.line for f in check_taint(g) if f.rule == "CTMS112"] == [5]


# ----------------------------------------------------------------------
# the acceptance round-trip through the incremental engine
# ----------------------------------------------------------------------
def test_removing_clock_read_clears_finding_incrementally(tmp_path):
    files = write_tree(tmp_path, B_WITH_CLOCK)
    cache = tmp_path / "cache.json"

    first = run_lint_v2([tmp_path / "repro"], cache_path=cache)
    rules = {f.rule for f in first.new}
    assert "CTMS111" in rules
    a_hits = [
        f
        for f in first.new
        if f.rule == "CTMS111" and f.file.endswith("repro/core/a.py")
    ]
    assert a_hits, first.new

    # Remove the wall-clock read; only b.py is re-analyzed, the cached
    # summaries cover the rest, and the link clears a.py's finding too.
    files["b"].write_text(textwrap.dedent(B_CLEAN))
    second = run_lint_v2([tmp_path / "repro"], cache_path=cache)
    assert [Path(p).name for p in second.reparsed] == ["b.py"]
    assert second.cache_hits == first.files_scanned - 1
    assert [f for f in second.new if f.rule == "CTMS111"] == []
    assert second.ok()
