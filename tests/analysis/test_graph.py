"""Project graph: module naming, summaries, and call resolution.

The graph is the substrate for every whole-program phase, so these
tests pin the resolution rules directly: local calls, ``self.method``,
module-qualified and ``from``-imported names, and methods through
inheritance.
"""

import textwrap

from repro.analysis.graph import (
    ModuleSummary,
    ProjectGraph,
    module_name,
    summarize_module,
)


def summarize(source: str, path: str) -> ModuleSummary:
    return summarize_module(textwrap.dedent(source), path)


def build(*files: tuple[str, str]) -> ProjectGraph:
    return ProjectGraph([summarize(src, path) for path, src in files])


def edge_map(graph: ProjectGraph) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for caller, callee, _line in graph.edges():
        out.setdefault(caller, set()).add(callee)
    return out


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def test_module_name_anchors_at_repro():
    assert module_name("src/repro/sim/engine.py")[0] == "repro.sim.engine"
    assert module_name("repro/core/session.py")[0] == "repro.core.session"


def test_package_init_is_flagged():
    dotted, is_package = module_name("src/repro/sim/__init__.py")
    assert dotted == "repro.sim"
    assert is_package


def test_non_repro_path_falls_back_to_stem():
    assert module_name("scripts/tool.py")[0] == "tool"


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def test_summary_records_functions_and_methods():
    m = summarize(
        """
        def free(): ...

        class Box:
            def get(self):
                return self.free_slot()
        """,
        "repro/core/box.py",
    )
    assert {"free", "Box.get", "<module>"} <= set(m.functions)


def test_summary_round_trips_through_dict():
    m = summarize(
        """
        import time

        def stamp():
            return time.time()  # ctms-lint: disable=CTMS103
        """,
        "repro/core/stamp.py",
    )
    clone = ModuleSummary.from_dict(m.to_dict())
    assert clone.module == m.module
    assert clone.suppressions == m.suppressions
    assert sorted(clone.functions) == sorted(m.functions)
    assert [f.rule for f in clone.raw] == [f.rule for f in m.raw]


# ----------------------------------------------------------------------
# call resolution
# ----------------------------------------------------------------------
def test_local_and_self_calls_resolve():
    g = build(
        (
            "repro/core/a.py",
            """
            class Worker:
                def run(self):
                    self.step()
                    helper()

                def step(self): ...

            def helper(): ...
            """,
        )
    )
    edges = edge_map(g)
    assert edges["repro.core.a:Worker.run"] == {
        "repro.core.a:Worker.step",
        "repro.core.a:helper",
    }


def test_module_qualified_and_from_import_calls_resolve():
    g = build(
        (
            "repro/core/util.py",
            """
            def clamp(x): ...
            def scale(x): ...
            """,
        ),
        (
            "repro/core/b.py",
            """
            from repro.core import util
            from repro.core.util import scale

            def go(x):
                return util.clamp(scale(x))
            """,
        ),
    )
    assert edge_map(g)["repro.core.b:go"] == {
        "repro.core.util:clamp",
        "repro.core.util:scale",
    }


def test_method_resolves_through_inheritance():
    g = build(
        (
            "repro/core/base.py",
            """
            class Base:
                def tick(self): ...
            """,
        ),
        (
            "repro/core/child.py",
            """
            from repro.core.base import Base

            class Child(Base):
                def run(self):
                    self.tick()
            """,
        ),
    )
    assert "repro.core.base:Base.tick" in edge_map(g)["repro.core.child:Child.run"]


def test_constructor_call_resolves_to_init():
    g = build(
        (
            "repro/core/c.py",
            """
            class Thing:
                def __init__(self): ...

            def make():
                return Thing()
            """,
        )
    )
    assert edge_map(g)["repro.core.c:make"] == {"repro.core.c:Thing.__init__"}


def test_resolve_module_suffix_match_unique_ambiguous_and_memoized():
    g = build(
        ("repro/core/leaf.py", "def f(): ...\n"),
        ("repro/net/ring.py", "def g(): ...\n"),
        ("repro/hw/ring.py", "def h(): ...\n"),
    )
    leaf = g.modules["repro/core/leaf.py"]
    queries = ["src.repro.core.leaf", "core.leaf", "ring", "os", "repro.core.leaf"]
    first = [g.resolve_module(q) for q in queries]
    # A unique suffix match links, in either direction.
    assert first[0] is leaf and first[1] is leaf
    # Two modules end in `.ring`: ambiguous, so unresolved.
    assert first[2] is None
    # External modules never match.
    assert first[3] is None
    assert first[4] is leaf
    for _ in range(2):
        assert [g.resolve_module(q) for q in queries] == first
