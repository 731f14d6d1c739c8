"""No module in ``src/repro``, ``tests``, ``benchmarks`` or ``examples``
imports a name it never reads.

An unused import costs set-up time in every process that loads the
module (the environment compiles from source on each run) and tells a
reader about a dependency that is not there.  The check is an AST walk:
a name bound by ``import`` or ``from ... import`` must occur as a name
somewhere else in the module, including inside a string annotation.
``from __future__`` imports are exempt.  It is a test rather than a
ctms-lint rule, so ``repro lint`` does no extra work for it.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, parsing the strings inside it."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_gate_sees_string_annotations_and_skips_future():
    source = (
        "from __future__ import annotations\n"
        "from typing import Optional, Any\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == [(2, "Any"), (3, "os")]


def _found(*trees: str) -> list[str]:
    return [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for tree in trees
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]


def test_src_imports_nothing_it_does_not_read():
    assert _found("src/repro") == []


def test_tests_benchmarks_and_examples_import_nothing_they_do_not_read():
    assert _found("tests", "benchmarks", "examples") == []
