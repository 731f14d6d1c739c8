"""Baseline files: burn pre-existing findings down incrementally.

A baseline is a JSON object mapping file path -> rule ID -> allowed count.
``repro lint`` subtracts the baseline from what it finds: up to the
allowed count of findings per (file, rule) are reported as *baselined*
(informational, exit 0); anything beyond is *new* and fails the run.
Deleting entries as violations are fixed ratchets the debt downward --
the committed ``lint-baseline.json`` is empty for ``src/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding


@dataclass
class BaselineResult:
    """The findings split against a baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    #: (file, rule) entries in the baseline no current finding consumes --
    #: stale debt that should be deleted from the file.
    stale: list[tuple[str, str]] = field(default_factory=list)


def load_baseline(path: str | Path) -> dict[str, dict[str, int]]:
    """Read a baseline file; a missing file is an empty baseline.

    Anything but an object of file -> object of rule -> int count is a
    ``ValueError`` (``repro lint`` turns it into a usage error, exit 2).
    """
    p = Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"baseline {path} must be a JSON object")
    for file, rules in data.items():
        if not isinstance(rules, dict) or not all(
            isinstance(count, int) and not isinstance(count, bool)
            for count in rules.values()
        ):
            raise ValueError(
                f"baseline entry {file!r} must be an object of rule -> int"
            )
    return data


def write_baseline(findings: list[Finding], path: str | Path) -> dict:
    """Serialise current findings as a baseline (sorted, diff-stable)."""
    counts: dict[str, dict[str, int]] = {}
    for f in sorted(findings):
        counts.setdefault(f.file, {}).setdefault(f.rule, 0)
        counts[f.file][f.rule] += 1
    ordered = {
        file: dict(sorted(rules.items())) for file, rules in sorted(counts.items())
    }
    Path(path).write_text(json.dumps(ordered, indent=2) + "\n")
    return ordered


def apply_baseline(
    findings: list[Finding], baseline: dict[str, dict[str, int]]
) -> BaselineResult:
    """Split findings into new vs baselined, and report stale entries.

    Within one (file, rule) bucket the earliest findings (by line) consume
    the allowance, so a file that gains a violation fails even if an older
    one still exists elsewhere in it.
    """
    result = BaselineResult()
    remaining = {
        (file, rule): count
        for file, rules in baseline.items()
        for rule, count in rules.items()
    }
    for finding in sorted(findings):
        key = (finding.file, finding.rule)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            result.baselined.append(finding)
        else:
            result.new.append(finding)
    result.stale = sorted(key for key, count in remaining.items() if count > 0)
    return result
