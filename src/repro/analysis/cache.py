"""The incremental-analysis cache: per-file summaries keyed by content hash.

One JSON file (default ``.ctms-lint-cache.json``) maps every analyzed
path to its source's SHA-256 and the serialized :class:`ModuleSummary`.
On the next run a file whose hash is unchanged skips parsing entirely --
its summary (including per-file findings) is deserialized instead, and
only the whole-program phases (taint fixed-point, cross-module units,
CTMS001) re-run over summaries.  That makes ``repro lint`` on an
unchanged tree near-instant and bounds a one-file edit's cost to that
file plus the cheap link.

The cache auto-invalidates on analyzer change: the fingerprint folds in
the rule registry and a version counter that must be bumped whenever
summary *content* changes meaning.  A corrupt or mismatched cache file is
simply ignored -- the cache is never allowed to change results, only to
skip work.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.analysis.graph import ModuleSummary
from repro.analysis.rules import RULES

#: Bump whenever summaries, rules, or checker behavior change shape or
#: meaning -- a stale-schema cache must never be trusted.
ANALYSIS_VERSION = 4


def analyzer_fingerprint() -> str:
    payload = f"v{ANALYSIS_VERSION}:" + ",".join(sorted(RULES))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


class SummaryCache:
    """Load-mutate-store wrapper around the cache file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        self.loaded_fingerprint: Optional[str] = None
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        if data.get("fingerprint") != analyzer_fingerprint():
            return  # analyzer changed; every summary is suspect
        files = data.get("files")
        if isinstance(files, dict):
            self.entries = files
            self.loaded_fingerprint = data["fingerprint"]

    def get(self, path: str, sha: str) -> Optional[ModuleSummary]:
        """The cached summary for ``path`` iff its content still hashes to
        ``sha``; None forces re-analysis."""
        entry = self.entries.get(path)
        if not entry or entry.get("sha") != sha:
            return None
        try:
            return ModuleSummary.from_dict(entry["summary"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, path: str, sha: str, summary: ModuleSummary) -> None:
        self.entries[path] = {"sha": sha, "summary": summary.to_dict()}

    def prune(self, live_paths: set[str]) -> None:
        """Drop entries for files no longer part of the analyzed set."""
        for path in list(self.entries):
            if path not in live_paths:
                del self.entries[path]

    def store(self) -> None:
        payload = {
            "fingerprint": analyzer_fingerprint(),
            "files": self.entries,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(self.path)


__all__ = [
    "ANALYSIS_VERSION",
    "SummaryCache",
    "analyzer_fingerprint",
    "content_hash",
]
