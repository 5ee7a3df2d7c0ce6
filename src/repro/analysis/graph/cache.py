"""Content-hash cache of module summaries for incremental graph runs.

Summaries are keyed by report path and invalidated by a sha256 of the
file's bytes, so an incremental ``repro lint --graph`` re-summarizes
only the files whose *content* changed — touching timestamps or
reordering the walk cannot cause spurious work.  Hits and misses are
counted on the caller's :class:`~repro.obs.metrics.MetricsRegistry`
(``reprograph_summaries_total{result=hit|miss}``), which is what the
incrementality tests assert against.

The on-disk form is one JSON document written through the generic
:mod:`.codec` (schema-versioned; a corrupt or mismatched file is
discarded, and a malformed entry is a miss — never an error).  Entries
for files that no longer exist on disk are pruned at save time so
fixture churn cannot grow the cache without bound.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .codec import from_json, to_json
from .summarize import SUMMARY_VERSION, ModuleSummary

__all__ = ["SummaryCache", "content_hash"]

_CACHE_VERSION = 1


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SummaryCache:
    """Load-once / save-once summary store (in-memory when path=None)."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, dict] = {}
        self._sources: dict[str, str] = {}  # report path -> filesystem path
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.is_file():
            return
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return
        if (
            not isinstance(document, dict)
            or document.get("version") != _CACHE_VERSION
            or document.get("summary_version") != SUMMARY_VERSION
        ):
            return
        entries = document.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def get(self, report_path: str, digest: str) -> ModuleSummary | None:
        """The cached summary for ``report_path`` at ``digest``, or None."""
        entry = self._entries.get(report_path)
        if not isinstance(entry, dict) or entry.get("hash") != digest:
            self.misses += 1
            return None
        try:
            summary = from_json(ModuleSummary, entry["summary"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(
        self, report_path: str, digest: str, summary: ModuleSummary, source: str
    ) -> None:
        self._entries[report_path] = {
            "hash": digest,
            "summary": to_json(summary),
        }
        self._sources[report_path] = source
        self._dirty = True

    def mark_source(self, report_path: str, source: str) -> None:
        """Record where a (hit) entry's file lives, for pruning."""
        self._sources[report_path] = source

    def save(self) -> None:
        """Write the cache back (no-op when in-memory or unchanged)."""
        if self.path is None or not self._dirty:
            return
        kept = {}
        for report_path, entry in sorted(self._entries.items()):
            source = self._sources.get(report_path, report_path)
            if Path(source).exists():
                kept[report_path] = entry
        document = {
            "version": _CACHE_VERSION,
            "summary_version": SUMMARY_VERSION,
            "entries": kept,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
        self._dirty = False
