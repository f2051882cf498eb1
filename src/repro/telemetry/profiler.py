"""Per-rule / per-lens profiling: where does a scan cycle spend its time?

The span collector answers "what happened when"; the profiler answers
the dashboard question "which rules and lenses are hot or broken",
aggregated across every evaluation of the process.  Keys are

* ``("rule", "<entity>/<rule name>")`` -- one rule evaluated anywhere in
  the fleet (per-entity and composite rules alike);
* ``("lens", "<parser name>")`` -- one lens or schema parser doing real
  work (cache misses only; hits never reach the parser).

Everything is thread-safe; recording is a dict upsert under one lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass
class ProfileEntry:
    """Aggregate cost of one rule or lens."""

    kind: str                 # "rule" | "lens"
    key: str
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class RuleProfiler:
    """Thread-safe accumulator of per-rule / per-lens costs."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], ProfileEntry] = {}
        #: Whole-frame rule batches from :meth:`record_rules`; folded
        #: into ``_entries`` lazily, the first time anything reads them.
        self._pending: list[list] = []

    def record(self, kind: str, key: str, seconds: float,
               *, error: bool = False) -> None:
        with self._lock:
            entry = self._entries.get((kind, key))
            if entry is None:
                entry = self._entries[(kind, key)] = ProfileEntry(kind, key)
            entry.calls += 1
            entry.total_s += seconds
            if seconds > entry.max_s:
                entry.max_s = seconds
            if error:
                entry.errors += 1

    def record_batch(self, records) -> None:
        """Bulk :meth:`record`: ``records`` yields tuples of
        ``(kind, key, seconds, error)``; one lock acquisition total."""
        with self._lock:
            entries = self._entries
            for kind, key, seconds, error in records:
                entry = entries.get((kind, key))
                if entry is None:
                    entry = entries[(kind, key)] = ProfileEntry(kind, key)
                entry.calls += 1
                entry.total_s += seconds
                if seconds > entry.max_s:
                    entry.max_s = seconds
                if error:
                    entry.errors += 1

    def record_rules(self, records: list) -> None:
        """Defer one frame's rule profile in a single list append.

        ``records`` is a list of rule-result objects, each exposing
        ``rule.name``, ``entity``, ``verdict.value`` (``"error"`` for an
        errored evaluation), and ``duration_s``; the list MUST not be
        mutated afterwards.  Aggregation happens lazily when the
        profiler is read (:meth:`entries` and everything built on it),
        keeping the scan cycle's hot path to one append.
        """
        with self._lock:
            self._pending.append(records)

    def _drain_locked(self) -> None:
        """Fold pending rule batches into entries; caller holds lock."""
        if not self._pending:
            return
        entries = self._entries
        for records in self._pending:
            for result in records:
                key = f"{result.entity}/{result.rule.name}"
                entry = entries.get(("rule", key))
                if entry is None:
                    entry = entries[("rule", key)] = (
                        ProfileEntry("rule", key)
                    )
                entry.calls += 1
                seconds = result.duration_s
                entry.total_s += seconds
                if seconds > entry.max_s:
                    entry.max_s = seconds
                if result.verdict.value == "error":
                    entry.errors += 1
        self._pending.clear()

    def fold(self) -> None:
        with self._lock:
            self._drain_locked()

    # ---- ranking ----------------------------------------------------------

    def entries(self, kind: str | None = None) -> list[ProfileEntry]:
        with self._lock:
            self._drain_locked()
            snapshot = [
                ProfileEntry(e.kind, e.key, e.calls, e.errors,
                             e.total_s, e.max_s)
                for e in self._entries.values()
            ]
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        return snapshot

    def hottest(self, kind: str | None = None,
                count: int = 10) -> list[ProfileEntry]:
        """Top-N by total time spent (the capacity-planning view)."""
        return sorted(
            self.entries(kind), key=lambda e: (-e.total_s, e.key)
        )[:count]

    def most_erroring(self, kind: str | None = None,
                      count: int = 10) -> list[ProfileEntry]:
        """Top-N by error count (only entries that errored at all)."""
        flagged = [e for e in self.entries(kind) if e.errors]
        return sorted(flagged, key=lambda e: (-e.errors, e.key))[:count]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pending.clear()

    def __len__(self) -> int:
        with self._lock:
            self._drain_locked()
            return len(self._entries)

    # ---- rendering --------------------------------------------------------

    def render(self, *, top: int = 10) -> str:
        """Aligned hot/error tables for CLI and fleet dashboards."""
        lines: list[str] = []
        for kind, title in (("rule", "hottest rules"),
                            ("lens", "hottest lenses")):
            ranked = [e for e in self.hottest(kind, top) if e.calls]
            if not ranked:
                continue
            lines.append(f"{title}:")
            lines.append(
                f"  {'total [ms]':>12}{'mean [ms]':>12}{'max [ms]':>12}"
                f"{'calls':>8}{'errors':>8}  name"
            )
            for entry in ranked:
                lines.append(
                    f"  {entry.total_s * 1e3:>12.2f}{entry.mean_s * 1e3:>12.3f}"
                    f"{entry.max_s * 1e3:>12.3f}{entry.calls:>8d}"
                    f"{entry.errors:>8d}  {entry.key}"
                )
        erroring = self.most_erroring(count=top)
        if erroring:
            lines.append("most erroring:")
            for entry in erroring:
                lines.append(
                    f"  {entry.errors:4d}/{entry.calls:<6d} "
                    f"[{entry.kind}] {entry.key}"
                )
        return "\n".join(lines) if lines else "no profile data recorded"


class NoopProfiler:
    """Disabled profiler (records nothing)."""

    enabled = False

    def record(self, kind, key, seconds, *, error=False) -> None:
        return None

    def record_batch(self, records) -> None:
        return None

    def record_rules(self, records) -> None:
        return None

    def fold(self) -> None:
        return None

    def entries(self, kind=None) -> list:
        return []

    def hottest(self, kind=None, count=10) -> list:
        return []

    def most_erroring(self, kind=None, count=10) -> list:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def render(self, *, top: int = 10) -> str:
        return "telemetry disabled; no profile data"


NOOP_PROFILER = NoopProfiler()
