"""The per-file core of ctms-lint: run the checkers, honour suppressions.

One module at a time -- the rules live in :mod:`repro.analysis.checkers`
(AST determinism/units pass) and :mod:`repro.analysis.layering` (import
rules), the debt ledger in :mod:`repro.analysis.baseline`, and the
whole-program driver that calls into this module in
:mod:`repro.analysis.v2`.

Inline suppressions: append ``# ctms-lint: disable=CTMS201`` (comma lists
and ``disable=all`` accepted) to the offending line.  For multi-line
constructs the finding anchors to the construct's first line (the ``for``
of a loop, the call's opening line), so that is where the comment goes.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import BaselineResult
from repro.analysis.checkers import DeterminismVisitor
from repro.analysis.findings import Finding
from repro.analysis.layering import check_layering

_SUPPRESS_RE = re.compile(r"ctms-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Files whose rules are relaxed: sim/rng.py is the sanctioned home of raw
#: ``random`` machinery.
_RNG_HOME_SUFFIX = "repro/sim/rng.py"

#: ...and these are the sanctioned homes of process machinery and host
#: clocks (CTMS103/CTMS303 off there): the campaign supervisor bridges
#: the clock domains (docs/FLEET.md) and the bench harness *measures* the
#: host clock on purpose (docs/OBSERVABILITY.md).
_PROCESS_HOME_SUFFIXES = (
    "repro/experiments/fleet.py",
    "repro/bench/harness.py",
)

#: ...and the one sanctioned home of control-plane policy decisions
#: (CTMS304 off there): admission, placement, shedding, and failover
#: policy live in the session control plane, nowhere else.
_CONTROL_HOME_SUFFIX = "repro/core/control.py"


def suppressed_rules_by_line(source: str) -> dict[int, set[str]]:
    """Map line number -> rule IDs disabled by an inline comment there.

    Every comment is a substring of the source, so a source the pattern
    does not match anywhere has no suppressions: only the few files that
    mention the marker pay for tokenizing.
    """
    if _SUPPRESS_RE.search(source) is None:
        return {}
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                out.setdefault(tok.start[0], set()).update(r for r in rules if r)
    except tokenize.TokenError:
        pass
    return out


def _is_suppressed(finding: Finding, suppressions: dict[int, set[str]]) -> bool:
    disabled = suppressions.get(finding.line, set())
    return "all" in disabled or finding.rule in disabled


@dataclass
class LintReport:
    """Everything one lint run produced."""

    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    baseline: BaselineResult = field(default_factory=BaselineResult)
    #: Files actually re-parsed (cache misses) vs served from the
    #: incremental cache.
    reparsed: list[str] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def new(self) -> list[Finding]:
        return self.baseline.new

    @property
    def baselined(self) -> list[Finding]:
        return self.baseline.baselined

    def ok(self) -> bool:
        """True when nothing non-baselined was found and every file parsed.

        Stale baseline entries fail too: the ratchet only moves one way,
        so an allowance no finding consumes must be deleted, not kept as
        headroom for future debt.
        """
        return not self.new and not self.parse_errors and not self.baseline.stale

    def render_text(self) -> str:
        lines = [f.render() for f in self.new]
        lines += [f"{err}: syntax error (unparseable file)" for err in self.parse_errors]
        if self.baselined:
            lines.append(f"({len(self.baselined)} baselined finding(s) suppressed)")
        for file, rule in self.baseline.stale:
            lines.append(f"stale baseline entry: {file} {rule} (delete it)")
        verdict = "clean" if self.ok() else f"{len(self.new)} new finding(s)"
        lines.append(
            f"ctms-lint: {self.files_scanned} file(s) scanned, {verdict}"
            f" ({self.cache_hits} from cache, {len(self.reparsed)} re-analyzed)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "files_scanned": self.files_scanned,
            "findings": [f.as_dict() for f in self.new],
            "baselined": [f.as_dict() for f in self.baselined],
            "stale_baseline": [list(entry) for entry in self.baseline.stale],
            "parse_errors": self.parse_errors,
            "ok": self.ok(),
            "cache": {"hits": self.cache_hits, "reparsed": self.reparsed},
        }
        return json.dumps(payload, indent=2)


def is_rng_home(path: str) -> bool:
    return path.replace("\\", "/").endswith(_RNG_HOME_SUFFIX)


def is_process_home(path: str) -> bool:
    return path.replace("\\", "/").endswith(_PROCESS_HOME_SUFFIXES)


def is_control_home(path: str) -> bool:
    return path.replace("\\", "/").endswith(_CONTROL_HOME_SUFFIX)


@dataclass
class ModuleScan:
    """What one traversal of a parsed module yields."""

    #: Per-file findings before suppressions.  The v2 engine needs the
    #: pre-suppression list (CTMS001 reports inline disables that no
    #: longer suppress anything), so suppression filtering is separate.
    findings: list[Finding]
    #: Every ``import``/``from ... import`` statement, in ``ast.walk`` order.
    imports: list[ast.Import | ast.ImportFrom]
    #: Every call and attribute node, in ``ast.walk`` order.
    refs: list[ast.Call | ast.Attribute]


def scan_module(tree: ast.AST, path: str) -> ModuleScan:
    """Run the per-file rules over one parsed module in a single traversal."""
    visitor = DeterminismVisitor(
        path,
        rng_home=is_rng_home(path),
        process_home=is_process_home(path),
        control_home=is_control_home(path),
    )
    visitor.visit(tree)
    imports, refs = visitor.collected_nodes()
    return ModuleScan(
        findings=visitor.findings + check_layering(imports, path),
        imports=imports,
        refs=refs,
    )


def apply_suppressions(
    findings: list[Finding], suppressions: dict[int, set[str]]
) -> list[Finding]:
    return sorted(f for f in findings if not _is_suppressed(f, suppressions))


def lint_source(source: str, path: str) -> list[Finding]:
    """All findings for one module's source text (suppressions applied)."""
    tree = ast.parse(source, filename=path)
    return apply_suppressions(
        scan_module(tree, path).findings, suppressed_rules_by_line(source)
    )


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def _display_path(file: Path) -> str:
    """Repo-relative posix path when possible (stable baseline keys)."""
    try:
        rel = file.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return file.as_posix()
