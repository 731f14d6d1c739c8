"""Every documented import path resolves.

Every import names its defining module, so a doc snippet or example that
names a module or a name the code no longer has would only fail when
someone happened to run it; this test runs every one of them.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def documented_imports() -> list[tuple[str, str]]:
    """(file, statement) for every ``from repro... import ...`` in the
    README, ``docs/*.md`` and ``examples/*.py``."""
    found = []
    for path in sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]:
        pattern = r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n]*))"
        for match in re.finditer(pattern, path.read_text(), re.MULTILINE):
            found.append((path.name, match.group(1)))
    for path in sorted(REPO_ROOT.glob("examples/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.append((path.name, ast.unparse(node)))
    return found


@pytest.mark.parametrize(
    "statement", [stmt for _name, stmt in documented_imports()],
    ids=[name for name, _stmt in documented_imports()],
)
def test_documented_import_resolves(statement):
    exec(statement, {})
