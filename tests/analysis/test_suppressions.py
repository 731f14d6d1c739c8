"""Suppression hygiene and finding anchors.

CTMS001 flags inline disables that no longer match a finding; the
anchor regressions pin where findings land for decorated defs and
multi-line calls -- the two shapes where a suppression comment and its
finding historically drifted onto different lines.
"""

import textwrap

from repro.analysis.checkers import def_anchor_line
from repro.analysis.engine import lint_source
from repro.analysis.graph import ProjectGraph, summarize_module
from repro.analysis.taint import check_taint
from repro.analysis.v2 import check_unused_suppressions, run_lint_v2


def v2_over(tmp_path, source: str, name: str = "mod.py"):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / name).write_text(textwrap.dedent(source))
    return run_lint_v2([tmp_path / "repro"], cache_path=None)


# ----------------------------------------------------------------------
# CTMS001 -- unused suppressions
# ----------------------------------------------------------------------
def test_unused_suppression_flagged(tmp_path):
    report = v2_over(
        tmp_path,
        """
        def clamp(x):
            return max(0, x)  # ctms-lint: disable=CTMS103
        """,
    )
    assert [f.rule for f in report.new] == ["CTMS001"]
    assert report.new[0].severity == "warning"
    assert "CTMS103" in report.new[0].message


def test_used_suppression_is_not_flagged(tmp_path):
    report = v2_over(
        tmp_path,
        """
        import time


        def stamp():
            return time.time()  # ctms-lint: disable=CTMS103
        """,
    )
    assert report.new == []


def test_disable_all_counts_as_used_when_anything_fires(tmp_path):
    report = v2_over(
        tmp_path,
        """
        import time


        def stamp():
            return time.time()  # ctms-lint: disable=all
        """,
    )
    assert report.new == []


def test_unused_suppression_unit_level():
    modules = [
        summarize_module(
            "x = 1  # ctms-lint: disable=CTMS201\n", "repro/core/m.py"
        )
    ]
    findings = check_unused_suppressions(modules, [])
    assert [(f.rule, f.line) for f in findings] == [("CTMS001", 1)]


# ----------------------------------------------------------------------
# anchor regressions
# ----------------------------------------------------------------------
def test_def_anchor_skips_decorators():
    import ast

    tree = ast.parse(
        textwrap.dedent(
            """
            @property
            @staticmethod
            def f():
                ...
            """
        )
    )
    assert def_anchor_line(tree.body[0]) == 4


def test_ctms112_anchors_at_def_not_decorator():
    g = ProjectGraph(
        [
            summarize_module(
                textwrap.dedent(
                    """
                    import time
                    import functools


                    @functools.lru_cache(
                        maxsize=None,
                    )
                    def on_timer():
                        return time.time()


                    def arm(sim):
                        sim.schedule(1_000, on_timer)
                    """
                ),
                "repro/core/deco.py",
            )
        ]
    )
    findings = [f for f in check_taint(g) if f.rule == "CTMS112"]
    assert [f.line for f in findings] == [9]  # the `def`, not line 6


def test_multi_line_call_anchors_at_open_line():
    findings = lint_source(
        textwrap.dedent(
            """
            def arm(sim, fn):
                sim.schedule(
                    1.5,
                    fn,
                )
            """
        ),
        "repro/core/m.py",
    )
    assert [(f.rule, f.line) for f in findings] == [("CTMS201", 3)]


def test_suppression_on_call_open_line_works_for_multi_line_call():
    findings = lint_source(
        textwrap.dedent(
            """
            def arm(sim, fn):
                sim.schedule(  # ctms-lint: disable=CTMS201
                    1.5,
                    fn,
                )
            """
        ),
        "repro/core/m.py",
    )
    assert findings == []
