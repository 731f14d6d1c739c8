"""The ctms-lint driver: the whole-program (v2) engine behind ``repro lint``.

One run:

1. hash every file; unchanged files load their :class:`ModuleSummary`
   from the incremental cache, changed ones are re-parsed and
   re-summarized (the per-file rules of :mod:`repro.analysis.engine` and
   the local unit dataflow run as part of summarization);
2. link all summaries into a :class:`ProjectGraph`;
3. run the whole-program phases over summaries only -- interprocedural
   taint (CTMS111/112) and cross-module unit checks (CTMS211/212);
4. flag unused inline suppressions (CTMS001) against the *pre-
   suppression* finding set, then apply suppressions and the baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.baseline import apply_baseline
from repro.analysis.cache import SummaryCache, content_hash
from repro.analysis.dataflow import check_graph_units
from repro.analysis.engine import (
    LintReport,
    _display_path,
    apply_suppressions,
    iter_python_files,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import ModuleSummary, ProjectGraph, summarize_module
from repro.analysis.rules import RULES
from repro.analysis.taint import check_taint

DEFAULT_CACHE_PATH = ".ctms-lint-cache.json"


def check_unused_suppressions(
    modules: list[ModuleSummary], findings: list[Finding]
) -> list[Finding]:
    """CTMS001: inline disables that no longer suppress anything.

    ``findings`` must be the pre-suppression set of every rule this run
    evaluated; a ``disable=RULE`` comment on a line where RULE does not
    fire is dead weight that would hide a future regression silently.
    """
    fired: dict[tuple[str, int], set[str]] = {}
    for f in findings:
        fired.setdefault((f.file, f.line), set()).add(f.rule)
    rule = RULES["CTMS001"]
    out: list[Finding] = []
    for module in modules:
        for line, rules in sorted(module.suppressions.items()):
            live = fired.get((module.path, line), set())
            for disabled in sorted(rules):
                if disabled == "CTMS001":
                    continue  # suppressing the unused-suppression check
                used = bool(live) if disabled == "all" else disabled in live
                if used:
                    continue
                out.append(
                    Finding(
                        file=module.path,
                        line=line,
                        col=0,
                        rule=rule.id,
                        severity=rule.severity,
                        message=(
                            f"suppression `disable={disabled}` no longer "
                            "matches a finding on this line"
                        ),
                        hint=rule.hint,
                    )
                )
    return out


def run_lint_v2(
    paths: list[str | Path],
    baseline: dict[str, dict[str, int]] | None = None,
    *,
    cache_path: str | Path | None = DEFAULT_CACHE_PATH,
) -> LintReport:
    """Whole-program lint with the incremental cache.

    ``cache_path=None`` disables caching (every file re-analyzed); the
    results are identical either way -- the cache only skips work.
    """
    report = LintReport()
    cache = SummaryCache(cache_path) if cache_path is not None else None

    modules: list[ModuleSummary] = []
    live_paths: set[str] = set()
    for file in iter_python_files(paths):
        report.files_scanned += 1
        display = _display_path(file)
        live_paths.add(display)
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            report.parse_errors.append(display)
            continue
        sha = content_hash(source)
        summary = cache.get(display, sha) if cache is not None else None
        if summary is None:
            try:
                summary = summarize_module(source, display)
            except SyntaxError:
                report.parse_errors.append(display)
                continue
            report.reparsed.append(display)
            if cache is not None:
                cache.put(display, sha, summary)
        else:
            report.cache_hits += 1
        modules.append(summary)

    graph = ProjectGraph(modules)
    pre_suppression: list[Finding] = []
    for module in modules:
        pre_suppression.extend(module.raw)
    pre_suppression.extend(check_taint(graph))
    pre_suppression.extend(check_graph_units(graph))
    pre_suppression.extend(
        check_unused_suppressions(modules, pre_suppression)
    )

    suppressions = {m.path: m.suppressions for m in modules}
    findings: list[Finding] = []
    for finding in pre_suppression:
        per_file = suppressions.get(finding.file, {})
        findings.extend(apply_suppressions([finding], per_file))
    findings.sort()

    report.findings = findings
    report.baseline = apply_baseline(findings, baseline or {})
    if cache is not None:
        cache.prune(live_paths)
        cache.store()
    return report


__all__ = [
    "DEFAULT_CACHE_PATH",
    "check_unused_suppressions",
    "run_lint_v2",
]
