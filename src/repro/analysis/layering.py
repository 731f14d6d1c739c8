"""Layering checker: the package-level import rules (CTMS301/302).

The paper's architecture moves data driver-to-driver: hardware models sit
at the bottom, drivers above them, the CTMS session layer above that, and
experiments orchestrate from the top.  The measurement rig (``measure``)
and the observability layer (``obs``) hang strictly off to the side --
they may observe any layer's types but never drive actuators.  These
checks read only ``import`` statements, so they hold for lazy
function-level imports too.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    LAYERING_FORBIDDEN,
    OBSERVE_ONLY_FORBIDDEN,
    OBSERVE_ONLY_MODULE_SUFFIXES,
    RULES,
)


def package_of(path: str) -> Optional[str]:
    """The repro sub-package a file belongs to, or None when not in one.

    ``.../repro/hardware/cpu.py`` -> ``"hardware"``; a top-level module
    like ``.../repro/cli.py`` -> ``""`` (unconstrained); a file outside
    any ``repro`` tree -> ``None`` (layering rules do not apply).
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            remainder = parts[i + 1 :]
            if len(remainder) >= 2:
                return remainder[0]
            return ""
    return None


def _imported_repro_packages(
    imports: list[ast.Import | ast.ImportFrom],
) -> list[tuple[str, ast.stmt]]:
    """Every repro sub-package the given import statements name."""
    found: list[tuple[str, ast.stmt]] = []
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    found.append((parts[1], node))
        elif node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    found.append((parts[1], node))
                else:
                    # `from repro import X` -- X itself may be a package.
                    for alias in node.names:
                        found.append((alias.name, node))
    return found


def _observe_only_scope(
    package: str, path: str
) -> tuple[Optional[frozenset[str]], str]:
    """The CTMS302 forbidden set governing this module, and its label.

    Package-wide rules (``measure``/``obs``) and per-module rules
    (``OBSERVE_ONLY_MODULE_SUFFIXES``) compose by union, so a module named
    in both stays observe-only even if either map loosens.
    """
    norm = path.replace("\\", "/")
    module_forbidden: Optional[frozenset[str]] = None
    label = f"`{package}`"
    for suffix, forbidden in OBSERVE_ONLY_MODULE_SUFFIXES.items():
        if norm.endswith(suffix):
            module_forbidden = forbidden
            label = f"`{suffix.removeprefix('repro/')}`"
            break
    package_forbidden = OBSERVE_ONLY_FORBIDDEN.get(package)
    if package_forbidden is None and module_forbidden is None:
        return None, label
    return (package_forbidden or frozenset()) | (
        module_forbidden or frozenset()
    ), label


def check_layering(
    imports: list[ast.Import | ast.ImportFrom], path: str
) -> list[Finding]:
    """CTMS301/302 findings for one module's import statements (every
    ``import``/``from ... import`` in the module, in ``ast.walk`` order)."""
    package = package_of(path)
    if package is None or package == "":
        return []
    findings: list[Finding] = []
    forbidden = LAYERING_FORBIDDEN.get(package, frozenset())
    observe_only, observe_label = _observe_only_scope(package, path)
    for target, node in _imported_repro_packages(imports):
        if target == package:
            continue
        if observe_only is not None:
            if target in observe_only:
                rule = RULES["CTMS302"]
                findings.append(
                    Finding(
                        file=path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=rule.id,
                        severity=rule.severity,
                        message=f"observe-only {observe_label} imports `repro.{target}`",
                        hint=rule.hint,
                    )
                )
            continue
        if "*" in forbidden or target in forbidden:
            rule = RULES["CTMS301"]
            reason = (
                f"`{package}` must stay self-contained"
                if "*" in forbidden
                else f"`{package}` sits below `{target}`"
            )
            findings.append(
                Finding(
                    file=path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=rule.id,
                    severity=rule.severity,
                    message=f"`repro.{package}` imports `repro.{target}` ({reason})",
                    hint=rule.hint,
                )
            )
    return findings
