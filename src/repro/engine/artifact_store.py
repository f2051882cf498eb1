"""Persistent content-addressed artifact store behind the ParseCache.

The in-memory :class:`~repro.engine.parse_cache.ParseCache` dedupes
parses *within* one process and evaporates when the process exits.
This module adds the durable tier the fleet actually wants: an on-disk
sqlite database (WAL mode, safe for concurrent readers/writers across
processes) keyed by ``(sha256(content), artifact kind, parser name,
lens version)`` holding pickled :class:`~repro.augtree.tree.ConfigTree`
and :class:`~repro.schema.table.SchemaTable` artifacts.  Duplicate
content then parses once per fleet *ever* -- not once per process per
run -- which is what makes fresh validators and repeated monitor cycles
cheaper.

Design points:

- **Keys are content addresses.**  The text digest comes from
  :func:`~repro.engine.parse_cache.content_digest` so the store composes
  with the in-memory cache without re-hashing.  ``LENS_VERSION`` is part
  of the key: bump it whenever lens/normalizer semantics change and old
  artifacts silently become misses instead of wrong answers.
- **Size-bounded LRU.**  Every hit touches ``last_used``; inserts that
  push the table over ``max_bytes`` evict oldest-used rows until the
  budget holds again.
- **Corruption never breaks a scan.**  Unpicklable/truncated blobs are
  deleted and counted as ``load_errors`` (the caller just re-parses); a
  broken database file disables the store for the process with one
  warning.  The store is an accelerator, not a source of truth.
"""

from __future__ import annotations

import logging
import pickle
import sqlite3
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from repro.chaos.fabric import _CHAOS, absorbed as _chaos_absorbed
from repro.chaos.quarantine import is_corruption, quarantine_database

log = logging.getLogger("repro.artifact_store")

#: Versions the *meaning* of stored artifacts.  Part of every key; bump
#: when lens output or the pickled artifact layout changes incompatibly.
LENS_VERSION = "2"

#: Default on-disk budget for pickled artifacts (the store evicts
#: least-recently-used rows beyond this).  Measured against the sum of
#: blob sizes, not the sqlite file size (WAL/freelist overhead varies).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Filename used when the store is anchored under a ``--state-dir``.
STORE_FILE = "artifacts.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    digest    TEXT NOT NULL,
    kind      TEXT NOT NULL,
    parser    TEXT NOT NULL,
    version   TEXT NOT NULL,
    blob      BLOB NOT NULL,
    nbytes    INTEGER NOT NULL,
    src_bytes INTEGER NOT NULL,
    last_used INTEGER NOT NULL,
    PRIMARY KEY (digest, kind, parser, version)
);
CREATE INDEX IF NOT EXISTS artifacts_lru ON artifacts (last_used);
"""


@dataclass
class ArtifactStoreStats:
    """Point-in-time counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    stored: int = 0
    evictions: int = 0
    load_errors: int = 0
    store_errors: int = 0
    bytes_loaded: int = 0    # source-config bytes whose parse was skipped
    bytes_stored: int = 0    # pickled-artifact bytes written
    entries: int = 0         # rows currently on disk
    disk_bytes: int = 0      # sum of blob sizes currently on disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render(self) -> str:
        return (
            f"artifact store: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.stored} stored, "
            f"{self.evictions} evicted, {self.load_errors} load errors, "
            f"{self.entries} entries / {self.disk_bytes:,} B on disk"
        )


class ArtifactStore:
    """Durable second tier for parsed config artifacts.

    Thread-safe within a process (one connection guarded by a lock);
    safe across processes via sqlite WAL + busy timeout, so concurrent
    runs can share one store path.
    """

    def __init__(self, path: str | Path, *,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.path = str(path)
        self.max_bytes = max(0, int(max_bytes))
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._broken = False
        self._clock = 0  # monotonic LRU stamp, seeded from the table
        self._hits = 0
        self._misses = 0
        self._stored = 0
        self._evictions = 0
        self._load_errors = 0
        self._store_errors = 0
        self._bytes_loaded = 0
        self._bytes_stored = 0
        try:
            self._reopen()
        except (sqlite3.Error, OSError) as error:
            self._handle_error("open", error)

    def _reopen(self) -> None:
        """(Re)connect to the database file, creating it if missing."""
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=10.0,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=10000")
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT COALESCE(MAX(last_used), 0) FROM artifacts"
        ).fetchone()
        self._clock = int(row[0])
        conn.commit()
        self._conn = conn
        self._broken = False

    # ---- store/load ----------------------------------------------------

    def load(self, key: tuple[str, str, str], nbytes: int) -> Any | None:
        """Return the stored artifact for ``(digest, kind, parser)``.

        ``nbytes`` is the source-config byte count, credited to
        ``bytes_loaded`` on a hit.  Any failure -- missing row, corrupt
        blob, database error -- returns ``None`` so the caller falls
        back to parsing.
        """
        conn = self._conn
        if conn is None:
            return None
        digest, kind, parser = key
        try:
            with self._lock:
                if _CHAOS.armed:
                    # Injected corruption surfaces exactly where a real
                    # "database disk image is malformed" would.
                    _CHAOS.fire("store.sqlite", self.path)
                row = conn.execute(
                    "SELECT blob FROM artifacts WHERE digest=? AND kind=?"
                    " AND parser=? AND version=?",
                    (digest, kind, parser, LENS_VERSION),
                ).fetchone()
                if row is None:
                    self._misses += 1
                    return None
                self._clock += 1
                conn.execute(
                    "UPDATE artifacts SET last_used=? WHERE digest=? AND"
                    " kind=? AND parser=? AND version=?",
                    (self._clock, digest, kind, parser, LENS_VERSION),
                )
                conn.commit()
        except sqlite3.Error as error:
            self._handle_error("load", error)
            return None
        try:
            value = pickle.loads(row[0])
        except Exception:
            # Truncated or stale blob: drop the row and re-parse.
            with self._lock:
                self._load_errors += 1
                self._misses += 1
                try:
                    conn.execute(
                        "DELETE FROM artifacts WHERE digest=? AND kind=?"
                        " AND parser=? AND version=?",
                        (digest, kind, parser, LENS_VERSION),
                    )
                    conn.commit()
                except sqlite3.Error as error:
                    self._handle_error("load", error)
            return None
        with self._lock:
            self._hits += 1
            self._bytes_loaded += nbytes
        return value

    def save(self, key: tuple[str, str, str], value: Any,
             nbytes: int) -> None:
        """Persist a parsed artifact; failures only count, never raise."""
        conn = self._conn
        if conn is None:
            return
        digest, kind, parser = key
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self._store_errors += 1
            return
        if self.max_bytes and len(blob) > self.max_bytes:
            return  # would evict the whole store to fit one artifact
        try:
            with self._lock:
                if _CHAOS.armed:
                    _CHAOS.fire("store.sqlite", self.path)
                self._clock += 1
                conn.execute(
                    "INSERT OR REPLACE INTO artifacts (digest, kind, parser,"
                    " version, blob, nbytes, src_bytes, last_used)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (digest, kind, parser, LENS_VERSION, blob, len(blob),
                     nbytes, self._clock),
                )
                self._stored += 1
                self._bytes_stored += len(blob)
                if self.max_bytes:
                    self._evict_locked(conn)
                conn.commit()
        except sqlite3.Error as error:
            self._handle_error("save", error)

    def _evict_locked(self, conn: sqlite3.Connection) -> None:
        total = conn.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts").fetchone()[0]
        while total > self.max_bytes:
            row = conn.execute(
                "SELECT digest, kind, parser, version, nbytes FROM artifacts"
                " ORDER BY last_used LIMIT 1").fetchone()
            if row is None:
                break
            conn.execute(
                "DELETE FROM artifacts WHERE digest=? AND kind=? AND"
                " parser=? AND version=?", row[:4])
            total -= row[4]
            self._evictions += 1

    # ---- lifecycle / stats ---------------------------------------------

    def _handle_error(self, op: str, error: Exception) -> None:
        """Route a database failure: corruption quarantines the file and
        rebuilds cold; anything else disables the store for the process.

        The store is an accelerator -- a quarantined database just means
        the fleet re-parses until the new file warms up, while the moved
        ``*.quarantined.*`` file stays on disk for the postmortem.
        """
        if is_corruption(error):
            _chaos_absorbed(error)   # credit an injected corruption fault
            conn, self._conn = self._conn, None
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
            moved = quarantine_database(self.path, reason=f"{op}: {error}")
            log.warning(
                "artifact store %s corrupt during %s (%s); quarantined to "
                "%s, rebuilding cold", self.path, op, error, moved)
            try:
                self._reopen()
                return
            except (sqlite3.Error, OSError) as reopen_error:
                error = reopen_error
        self._mark_broken(op, error)

    def _mark_broken(self, op: str, error: Exception) -> None:
        if not self._broken:
            self._broken = True
            log.warning(
                "artifact store disabled after %s failure on %s: %s",
                op, self.path, error)
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    @property
    def broken(self) -> bool:
        return self._broken

    def stats(self) -> ArtifactStoreStats:
        entries = disk = 0
        conn = self._conn
        if conn is not None:
            try:
                with self._lock:
                    entries, disk = conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(nbytes), 0)"
                        " FROM artifacts").fetchone()
            except sqlite3.Error as error:
                self._handle_error("stats", error)
        with self._lock:
            return ArtifactStoreStats(
                hits=self._hits,
                misses=self._misses,
                stored=self._stored,
                evictions=self._evictions,
                load_errors=self._load_errors,
                store_errors=self._store_errors,
                bytes_loaded=self._bytes_loaded,
                bytes_stored=self._bytes_stored,
                entries=int(entries),
                disk_bytes=int(disk),
            )

    def attach_to(self, registry) -> None:
        """Register pull-style ``repro_artifact_*`` metrics (same
        scrape-time refresh pattern as :meth:`ParseCache.attach_to`)."""
        hits = registry.counter(
            "repro_artifact_hits_total",
            "Artifact-store lookups served without re-parsing.")
        misses = registry.counter(
            "repro_artifact_misses_total",
            "Artifact-store lookups that fell through to a parser.")
        stored = registry.counter(
            "repro_artifact_stored_total",
            "Parsed artifacts persisted to the store.")
        evictions = registry.counter(
            "repro_artifact_evictions_total",
            "Artifacts dropped by the byte-budget LRU.")
        load_errors = registry.counter(
            "repro_artifact_load_errors_total",
            "Stored artifacts that failed to deserialize (deleted).")
        bytes_loaded = registry.counter(
            "repro_artifact_loaded_bytes_total",
            "Source-config bytes whose parse was served from the store.")
        bytes_stored = registry.counter(
            "repro_artifact_stored_bytes_total",
            "Pickled-artifact bytes written to the store.")
        entries = registry.gauge(
            "repro_artifact_entries",
            "Artifacts currently persisted in the store.")
        disk_bytes = registry.gauge(
            "repro_artifact_disk_bytes",
            "Pickled-artifact bytes currently on disk.")

        def collect() -> None:
            stats = self.stats()
            hits.set(stats.hits)
            misses.set(stats.misses)
            stored.set(stats.stored)
            evictions.set(stats.evictions)
            load_errors.set(stats.load_errors)
            bytes_loaded.set(stats.bytes_loaded)
            bytes_stored.set(stats.bytes_stored)
            entries.set(stats.entries)
            disk_bytes.set(stats.disk_bytes)

        registry.register_collector(f"artifact_store:{id(self)}", collect)

    def clear(self) -> None:
        conn = self._conn
        if conn is None:
            return
        try:
            with self._lock:
                conn.execute("DELETE FROM artifacts")
                conn.commit()
        except sqlite3.Error as error:
            self._handle_error("clear", error)

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def store_path_for(state_dir: str | Path) -> Path:
    """Where a ``--state-dir`` anchored store lives on disk."""
    return Path(state_dir) / STORE_FILE
