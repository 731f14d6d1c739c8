"""Every public name in ``src/repro`` has a caller outside ``tests/``.

A definition that only tests reach is code kept alive by its own test:
it costs lines and reading time and answers nothing the reproduction
asks.  This test builds one identifier index over the shipped trees
(``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` and the
``Makefile``) and lists every public top-level function or class, and
every public method or property of a top-level class, whose name occurs
there only at its own definition.  Names are matched as words, so a
mention anywhere (a call, an attribute, a string, a comment) counts as a
use, and two definitions that share a name keep each other.

Not counted: dunders, and the ``visit_*`` methods of ``ast.NodeVisitor``
subclasses, which ``NodeVisitor.visit`` reaches by ``getattr``.  The
allow list is short and each entry says why it stays; an entry that is
used again, or gone, fails the test like the lint baseline's stale
entries do.

The last test keeps docs/ANALYSIS.md's "Never-run functions" list in
step with the tree: every qualified name there must still be a ``def``
in the file its bullet gives.  Whether each one still never runs is the
dynamic half, ``make reach`` (``tests/shipped_calls.py``), which takes
minutes and is not tier 1.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

from tests.shipped_calls import SRC, classified, definitions

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "benchmarks", "examples", "perfbench")

ALLOWED = {
    # The per-file reference that tests/analysis/test_per_file_reference.py
    # compares the whole-program engine against.
    "repro.analysis.engine.lint_source",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEF = re.compile(r"\b(?:def|class)\s+([A-Za-z_]\w*)")


def _node_visitors(classes: dict[str, ast.ClassDef]) -> set[str]:
    """Names of the classes that subclass ``ast.NodeVisitor``, directly
    or through another class defined in ``src/repro``."""
    visitors = {"NodeVisitor"}
    while True:
        grown = visitors | {
            name for name, cls in classes.items()
            if any(ast.unparse(base).split(".")[-1] in visitors for base in cls.bases)
        }
        if grown == visitors:
            return visitors
        visitors = grown


@functools.cache
def unreached() -> tuple[str, ...]:
    """Dotted names of the public ``src/repro`` definitions that no
    shipped code names, allow-listed ones included."""
    words: Counter[str] = Counter()
    defs: Counter[str] = Counter()
    modules = {}
    files = [REPO_ROOT / "Makefile"]
    for tree in SHIPPED:
        files += sorted((REPO_ROOT / tree).rglob("*.py"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        words.update(_WORD.findall(text))
        defs.update(_DEF.findall(text))
        if path.suffix == ".py" and path.is_relative_to(REPO_ROOT / "src" / "repro"):
            module = ".".join(path.relative_to(REPO_ROOT / "src").with_suffix("").parts)
            modules[module] = ast.parse(text)

    top_classes = {
        node.name: node
        for tree in modules.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    visitors = _node_visitors(top_classes)
    definitions = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                if node.name in visitors and member.name.startswith("visit_"):
                    continue
                definitions.append(f"{module}.{node.name}.{member.name}")
    return tuple(sorted(
        dotted for dotted in definitions
        if not (name := dotted.rsplit(".", 1)[1]).startswith("_")
        and words[name] <= defs[name]
    ))


def test_every_public_definition_has_a_shipped_caller():
    found = unreached()
    unexpected = [name for name in found if name not in ALLOWED]
    assert unexpected == [], (
        "public definitions in src/repro that only tests reach; give each a "
        "shipped caller or delete it:\n  " + "\n  ".join(unexpected)
    )


def test_allow_list_has_no_stale_entries():
    stale = sorted(ALLOWED - set(unreached()))
    assert stale == [], (
        "allow-listed names that shipped code now uses, or that are gone; "
        "drop them from ALLOWED:\n  " + "\n  ".join(stale)
    )


def test_never_run_list_names_existing_definitions():
    listed = classified()
    assert len(listed) > 50  # the bullets still parse
    defined = {f"{Path(path).relative_to(SRC)}::{qualname}"
               for path, qualname, _first, _count in definitions()}
    gone = sorted(set(listed) - defined)
    assert gone == [], (
        "docs/ANALYSIS.md \"Never-run functions\" names functions that are "
        "not defined in the file given; fix or drop them:\n  " + "\n  ".join(gone)
    )
