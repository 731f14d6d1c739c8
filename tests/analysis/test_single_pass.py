"""One traversal per module: the v2 summarizer against the walks it replaced.

``summarize_module`` collects every import and every call/attribute node
during the same traversal that runs the per-file rules, steps over the
leaf nodes no rule reads (``checkers.LEAF_NODES``) both there and in the
dataflow pass's call-site scan, and tokenizes a source only when it
mentions the suppression marker.  The reference below summarizes the way
the engine used to: the per-file rules on the stock ``ast.NodeVisitor``
traversal, call sites found by ``ast.walk``, three separate ``ast.walk``
passes (the import maps, the CTMS301/302 import scan, the ``os.*``
source scan) each feeding the node kinds it reads, and an unconditional
tokenize.  Summaries must match it exactly, key order included -- that
is what lets ``cache.ANALYSIS_VERSION`` stay where it is.
"""

import ast
import io
import json
import textwrap
import tokenize
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import dataflow, engine, graph
from repro.analysis.checkers import _COLLECTED_NODES, LEAF_NODES, DeterminismVisitor
from repro.analysis.engine import (
    _SUPPRESS_RE,
    is_control_home,
    is_process_home,
    is_rng_home,
    suppressed_rules_by_line,
)
from repro.analysis.graph import ModuleSummary, module_name, summarize_module
from repro.analysis.layering import check_layering
from repro.analysis.v2 import run_lint_v2

ROOT = Path(__file__).resolve().parents[2]
IMPORTS = (ast.Import, ast.ImportFrom)
REFS = (ast.Call, ast.Attribute)
TREES = ["src", "tests", "benchmarks", "perfbench"]


class StockTraversal(DeterminismVisitor):
    """The per-file rules on ``ast.NodeVisitor``'s own traversal, which
    enters every node, leaves included."""

    generic_visit = ast.NodeVisitor.generic_visit


class StockCallScan(dataflow.FunctionAnalyzer):
    """The dataflow pass with its call sites found by ``ast.walk``."""

    def _record_calls(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub)


def reference_suppressions(source: str) -> dict[int, set[str]]:
    """Tokenize every source, marker or not."""
    out: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                out.setdefault(tok.start[0], set()).update(r for r in rules if r)
    except tokenize.TokenError:
        pass
    return out


def walk_of(tree: ast.AST, kinds: tuple) -> list[ast.AST]:
    return [node for node in ast.walk(tree) if isinstance(node, kinds)]


def reference_summary(source: str, path: str) -> ModuleSummary:
    tree = ast.parse(source, filename=path)
    dotted, is_package = module_name(path)
    summary = ModuleSummary(path=path, module=dotted, is_package=is_package)
    visitor = StockTraversal(
        path,
        rng_home=is_rng_home(path),
        process_home=is_process_home(path),
        control_home=is_control_home(path),
    )
    visitor.visit(tree)
    summary.raw = visitor.findings + check_layering(walk_of(tree, IMPORTS), path)
    summary.suppressions = reference_suppressions(source)
    graph._collect_imports(walk_of(tree, IMPORTS), summary)
    module_body = []
    with mock.patch.object(dataflow, "FunctionAnalyzer", StockCallScan):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph._add_function(summary, node, prefix="")
            elif isinstance(node, ast.ClassDef):
                graph._add_class(summary, node)
            else:
                module_body.append(node)
        graph._add_body(summary, "<module>", None, module_body, line=1, end_line=0)
    graph._attach_sources(summary, walk_of(tree, REFS))
    return summary


def summary_json(summarize, source: str, path: str) -> str:
    try:
        return json.dumps(summarize(source, path).to_dict())
    except SyntaxError as exc:
        return f"SyntaxError: {exc}"


# ----------------------------------------------------------------------
# summaries: every module in the repository
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tree", TREES)
def test_summaries_match_the_three_walk_reference(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    mismatched = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        path = file.relative_to(ROOT).as_posix()
        if summary_json(summarize_module, source, path) != summary_json(
            reference_summary, source, path
        ):
            mismatched.append(path)
    assert mismatched == []


def test_collected_nodes_are_in_walk_order():
    """Depth-first collection re-sorted by depth is ``ast.walk``'s order,
    across the shapes where the two traversals differ most: decorators
    (visited after the body), nested defs, comprehensions, lambdas."""
    source = textwrap.dedent(
        """
        import os
        from repro.sim import engine as e

        @deco(os.getenv("A"))
        def outer(x):
            import random as os
            def inner():
                from time import time
                return [f(y).z for y in g(os.environ)]
            return lambda: h(x.a.b)

        class C(Base):
            import json
            attr = k(os.urandom(4))

            def m(self):
                return self.n(e.run())
        """
    )
    tree = ast.parse(source)
    visitor = DeterminismVisitor("mod.py")
    visitor.visit(tree)
    imports, refs = visitor.collected_nodes()
    assert imports == walk_of(tree, IMPORTS)
    assert refs == walk_of(tree, REFS)


# ----------------------------------------------------------------------
# leaves: stepped over by the traversal and the call-site scan
# ----------------------------------------------------------------------
def test_no_rule_reads_a_leaf_class():
    """A leaf class is never entered, so a ``visit_`` method for it (or for
    what ``NodeVisitor.visit_Constant`` dispatches to) would never run, and
    a collected leaf would never be collected."""
    for cls in LEAF_NODES:
        name = f"visit_{cls.__name__}"
        assert getattr(DeterminismVisitor, name, None) is getattr(
            ast.NodeVisitor, name, None
        ), name
    for name in ("Num", "Str", "Bytes", "NameConstant", "Ellipsis"):
        assert not hasattr(DeterminismVisitor, f"visit_{name}"), name
    assert [cls for cls in LEAF_NODES if issubclass(cls, _COLLECTED_NODES)] == []


@pytest.mark.parametrize("tree", TREES)
def test_leaf_nodes_have_only_leaf_children(tree):
    """So stepping over a leaf skips no node of any other class."""
    for file in sorted((ROOT / tree).rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if type(node) in LEAF_NODES:
                children = {type(child) for child in ast.iter_child_nodes(node)}
                assert children <= LEAF_NODES, (file, node)


def test_traversal_enters_every_node_but_the_leaves():
    entered = []

    class Recording(DeterminismVisitor):
        def visit(self, node):
            entered.append(node)
            return super().visit(node)

    tree = ast.parse((ROOT / "src/repro/analysis/dataflow.py").read_text())
    Recording("mod.py").visit(tree)
    expected = [node for node in ast.walk(tree) if type(node) not in LEAF_NODES]
    assert len(entered) == len(expected)
    assert {id(node) for node in entered} == {id(node) for node in expected}


def call_order(analyzer: type, source: str) -> list[tuple[int, int]]:
    body = ast.parse(textwrap.dedent(source)).body
    return [(c.line, c.col) for c in analyzer("f", None, body, "mod.py").run().calls]


def test_call_scan_is_in_walk_order():
    """Nested calls where a depth-first walk, or one taking a node's fields
    in reverse, would order the call sites differently from ``ast.walk``."""
    source = """
        x = f(g(a(b())), h(c()), k=m(n()), *s(t()))[u(v())]
        if p(q(r())) or w(y(z())):
            raise E(o(d()), e=i(j()))
        """
    walk_order = call_order(StockCallScan, source)
    assert len(walk_order) == 23
    assert call_order(dataflow.FunctionAnalyzer, source) == walk_order


# ----------------------------------------------------------------------
# suppressions: tokenize only on a marker
# ----------------------------------------------------------------------
RULE_LISTS = st.lists(
    st.sampled_from(["CTMS101", "CTMS103", "CTMS211", "all", "CTMS001", ""]),
    min_size=1,
    max_size=3,
).map(", ".join)


@st.composite
def source_lines(draw):
    rules = draw(RULE_LISTS)
    marker = f"ctms-lint:{draw(st.sampled_from(['', ' ', '   ']))}disable={rules}"
    return draw(
        st.sampled_from(
            [
                "x = 1",
                "y = f(x)  # an ordinary comment",
                f"x = 1  # {marker}",
                f"# {marker}",
                f"s = '{marker}'",
                f's = "# {marker}"',
                f'"""Docstring.\n\n{marker}\n"""',
                f'"""\n# {marker}\n"""',
                f"t = f'{{x}} {marker}'",
                f"t = f\"{{'#'}} {marker}\"",
                f"u = f'{{x}}'  # {marker}",
                f"b = b'{marker}'",
            ]
        )
    )


#: Last lines: none, or one that leaves the tokenizer raising
#: ``tokenize.TokenError`` at EOF.
TOKEN_ERROR_TAILS = [
    "",
    "call(1,",
    'z = """never closed',
    "w = [1,\n  # ctms-lint: disable=CTMS101",
]


@given(
    lines=st.lists(source_lines(), max_size=8),
    tail=st.sampled_from(TOKEN_ERROR_TAILS),
)
def test_suppressions_match_the_always_tokenize_reference(lines, tail):
    source = "\n".join([*lines, tail]) + "\n"
    assert suppressed_rules_by_line(source) == reference_suppressions(source)


def test_token_error_tail_is_exercised():
    """The property above really reaches the tokenizer's error path."""
    for tail in TOKEN_ERROR_TAILS[1:]:
        with pytest.raises(tokenize.TokenError):
            list(tokenize.generate_tokens(io.StringIO(tail + "\n").readline))


def test_only_files_with_the_marker_are_tokenized(tmp_path, monkeypatch):
    calls = []
    real = engine.tokenize.generate_tokens

    def counting(readline):
        calls.append(readline)
        return real(readline)

    monkeypatch.setattr(engine.tokenize, "generate_tokens", counting)
    (tmp_path / "plain.py").write_text("x = 1\n")
    (tmp_path / "marked.py").write_text(
        "import time\nt = time.time()  # ctms-lint: disable=CTMS103\n"
    )
    report = run_lint_v2([tmp_path], cache_path=None)
    assert len(calls) == 1
    assert report.new == []  # the one tokenized file's suppression held
