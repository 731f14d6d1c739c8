"""The incremental cache: hits, misses, invalidation, and the invariant
that caching never changes results -- it only skips work."""

import json
import textwrap

from repro.analysis.cache import SummaryCache, analyzer_fingerprint, content_hash
from repro.analysis.graph import summarize_module
from repro.analysis.v2 import run_lint_v2

SOURCE = textwrap.dedent(
    """
    import time


    def stamp():
        return time.time()
    """
)


def make_summary():
    return summarize_module(SOURCE, "repro/core/stamp.py")


def test_round_trip_hit(tmp_path):
    cache = SummaryCache(tmp_path / "c.json")
    sha = content_hash(SOURCE)
    cache.put("repro/core/stamp.py", sha, make_summary())
    cache.store()

    reloaded = SummaryCache(tmp_path / "c.json")
    summary = reloaded.get("repro/core/stamp.py", sha)
    assert summary is not None
    assert [f.rule for f in summary.raw] == ["CTMS103"]


def test_content_change_misses(tmp_path):
    cache = SummaryCache(tmp_path / "c.json")
    cache.put("repro/core/stamp.py", content_hash(SOURCE), make_summary())
    assert cache.get("repro/core/stamp.py", content_hash(SOURCE + "\n")) is None


def test_fingerprint_mismatch_discards_everything(tmp_path):
    path = tmp_path / "c.json"
    cache = SummaryCache(path)
    cache.put("repro/core/stamp.py", content_hash(SOURCE), make_summary())
    cache.store()

    data = json.loads(path.read_text())
    data["fingerprint"] = "0" * 16
    path.write_text(json.dumps(data))
    assert SummaryCache(path).entries == {}


def test_corrupt_cache_file_is_ignored(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert SummaryCache(path).entries == {}


def test_prune_drops_dead_entries(tmp_path):
    cache = SummaryCache(tmp_path / "c.json")
    cache.put("repro/core/stamp.py", content_hash(SOURCE), make_summary())
    cache.prune({"repro/core/other.py"})
    assert cache.entries == {}


def test_fingerprint_covers_rule_registry():
    # Deterministic within a process; folds in every registered rule so
    # adding a rule invalidates all cached summaries.
    assert analyzer_fingerprint() == analyzer_fingerprint()
    assert len(analyzer_fingerprint()) == 16


def test_cached_and_uncached_runs_agree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "stamp.py").write_text(SOURCE)

    cold = run_lint_v2([tmp_path / "repro"], cache_path=tmp_path / "c.json")
    warm = run_lint_v2([tmp_path / "repro"], cache_path=tmp_path / "c.json")
    uncached = run_lint_v2([tmp_path / "repro"], cache_path=None)

    assert cold.reparsed and warm.reparsed == []
    assert warm.cache_hits == cold.files_scanned
    as_tuples = lambda r: [
        (f.file, f.line, f.rule) for f in r.findings
    ]
    assert as_tuples(cold) == as_tuples(warm) == as_tuples(uncached)
    assert {f.rule for f in cold.findings} == {"CTMS103"}
