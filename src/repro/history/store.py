"""Durable fleet-health history: verdict runs per (target, entity,
rule) plus per-cycle rollups.

The paper's production story (§5) is *continuous* scanning -- operators
watch a fleet across many cycles, and the operator-facing artifact is
the verdict history, not any single report.  :class:`HistoryStore` is
the append-only time axis under that: every scan cycle lands as

* a ``cycles`` row -- counts, compliance score, stage timings, and the
  incremental/parse-cache effectiveness numbers imported from
  :class:`~repro.engine.batch.FleetSummary`;
* a ``verdict_runs`` row for each (target, entity, rule) whose verdict
  or message changed -- a run covers the cycles from its first to its
  last (open while it lasts) in which the key kept one verdict and
  message, so a steady fleet writes no verdict rows at all;
* an ``entity_runs`` row for each scanned frame whose pass/fail rollup
  changed, the same way.

Every reader expands runs back into the per-cycle rows it always
returned.  Cycles that failed before producing a report hold no
verdicts and do not break a run; a successful cycle without the key
ends it.

The database carries the version of its layout in ``PRAGMA
user_version``.  A database with another version, or with none (as
every build before the stamp wrote), is moved aside with
:func:`~repro.chaos.quarantine.quarantine_database` when it is opened,
and a fresh one is started: nothing converts a layout in place.

Storage is stdlib :mod:`sqlite3` in WAL mode.  A single connection
(``check_same_thread=False``) is shared behind one lock, so scanner
threads, the HTTP endpoint, and offline readers coexist.

The write path applies the report's verdict delta
(:mod:`repro.engine.delta`) to the open runs kept in memory:

* verdict keys are normalized into a ``series`` dimension table, and
  verdicts are stored as 1-byte integer codes, decoded on read;
* messages are persisted only for noncompliant/error verdicts (a
  passing check's message restates the rule);
* each cycle is a single transaction, and retention pruning deletes
  child rows explicitly so per-row foreign-key enforcement stays off.

Retention is bounded: ``retain_cycles`` prunes the oldest cycles after
every write, and incremental vacuum hands the freed pages back so a
long-running monitor's database stops growing once the window is full.
"""

from __future__ import annotations

import bisect
import json
import os
import sqlite3
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass, fields, replace

from repro.chaos.fabric import _CHAOS, absorbed as _chaos_absorbed
from repro.chaos.quarantine import is_corruption, quarantine_database
from repro.engine.batch import FleetSummary
from repro.engine.delta import (
    VerdictKey,
    changes_since,
    index_report,
    report_token,
)
from repro.engine.results import ValidationReport, Verdict
from repro.engine.stages import STAGES, StageTimings
from repro.telemetry import get_logger
from repro.telemetry.stats import Stats, stat

log = get_logger("history")

#: Stable on-disk encoding of verdict values.  Append-only: codes are
#: part of the database format and must never be renumbered.
VERDICT_CODES: dict[str, int] = {
    Verdict.COMPLIANT.value: 0,
    Verdict.NONCOMPLIANT.value: 1,
    Verdict.ERROR.value: 2,
    Verdict.NOT_APPLICABLE.value: 3,
}
_VERDICT_NAMES: dict[int, str] = {
    code: value for value, code in VERDICT_CODES.items()
}
_MESSAGE_CODES = frozenset(
    (VERDICT_CODES[Verdict.NONCOMPLIANT.value],
     VERDICT_CODES[Verdict.ERROR.value])
)
#: Hot-loop twin of :data:`VERDICT_CODES`, keyed by enum member to skip
#: the ``.value`` descriptor per result.
_CODES_BY_MEMBER = {member: VERDICT_CODES[member.value]
                    for member in Verdict}
assert len(VERDICT_CODES) == len(Verdict), "unmapped verdict value"

_SCHEMA = """
-- A plain rowid key: retention never deletes the newest cycle, so a new
-- id is always above every id ever used, with no sqlite_sequence page
-- to rewrite on each commit.
CREATE TABLE IF NOT EXISTS cycles (
    cycle_id       INTEGER PRIMARY KEY,
    started_at     REAL    NOT NULL,
    elapsed_s      REAL    NOT NULL DEFAULT 0,
    entities       INTEGER NOT NULL DEFAULT 0,
    checks         INTEGER NOT NULL DEFAULT 0,
    compliant      INTEGER NOT NULL DEFAULT 0,
    noncompliant   INTEGER NOT NULL DEFAULT 0,
    errors         INTEGER NOT NULL DEFAULT 0,
    not_applicable INTEGER NOT NULL DEFAULT 0,
    compliance     REAL    NOT NULL DEFAULT 1.0,
    crawl_s        REAL    NOT NULL DEFAULT 0,
    discover_s     REAL    NOT NULL DEFAULT 0,
    parse_s        REAL    NOT NULL DEFAULT 0,
    evaluate_s     REAL    NOT NULL DEFAULT 0,
    composite_s    REAL    NOT NULL DEFAULT 0,
    parse_hits     INTEGER NOT NULL DEFAULT 0,
    parse_misses   INTEGER NOT NULL DEFAULT 0,
    parse_hit_rate REAL    NOT NULL DEFAULT 0,
    rules_skipped  INTEGER NOT NULL DEFAULT 0,
    rules_evaluated INTEGER NOT NULL DEFAULT 0,
    frames_clean   INTEGER NOT NULL DEFAULT 0,
    frames_dirty   INTEGER NOT NULL DEFAULT 0,
    scan_error     TEXT    NOT NULL DEFAULT '',
    -- Where a failed cycle died: the pipeline stage ("crawl", "validate",
    -- "store", ...) and, when known, the frame being processed.  Empty
    -- for healthy cycles.
    scan_error_stage TEXT  NOT NULL DEFAULT '',
    scan_error_frame TEXT  NOT NULL DEFAULT ''
);

-- The verdict-key dimension: one row per (target, entity, rule) ever
-- observed.  Severity lives here because it is a property of the rule,
-- not of any one cycle's outcome.
CREATE TABLE IF NOT EXISTS series (
    series_id INTEGER PRIMARY KEY,
    target    TEXT NOT NULL,
    entity    TEXT NOT NULL,
    rule      TEXT NOT NULL,
    severity  TEXT NOT NULL DEFAULT '',
    UNIQUE (target, entity, rule)
);

-- One row per run of a series: the successful cycles from first_cycle
-- to last_cycle (NULL while the run is open) in which the series kept
-- one verdict and message.  Deliberately index-free beyond the PK: a
-- cycle writes only the series that changed, and readers are offline
-- drilldowns bounded by retention.
CREATE TABLE IF NOT EXISTS verdict_runs (
    series_id   INTEGER NOT NULL,
    first_cycle INTEGER NOT NULL,
    last_cycle  INTEGER,
    verdict     INTEGER NOT NULL,
    message     TEXT    NOT NULL DEFAULT '',
    PRIMARY KEY (series_id, first_cycle)
) WITHOUT ROWID;

-- One row per run of a scanned frame's pass/fail rollup, like
-- verdict_runs.
CREATE TABLE IF NOT EXISTS entity_runs (
    target         TEXT    NOT NULL,
    first_cycle    INTEGER NOT NULL,
    last_cycle     INTEGER,
    passed         INTEGER NOT NULL DEFAULT 0,
    failed         INTEGER NOT NULL DEFAULT 0,
    worst_severity TEXT    NOT NULL DEFAULT '',
    PRIMARY KEY (target, first_cycle)
) WITHOUT ROWID;

-- Verdict provenance (``--provenance`` cycles only): the serialized
-- ProvenanceRecord per verdict, so ``repro explain --since`` can anchor
-- and diff source lines across cycles.  Empty on default runs.
CREATE TABLE IF NOT EXISTS provenance (
    cycle_id  INTEGER NOT NULL,
    series_id INTEGER NOT NULL,
    record    TEXT    NOT NULL,
    PRIMARY KEY (cycle_id, series_id)
) WITHOUT ROWID;
"""

#: The successful cycles a run ``r`` covers, as a join on ``cycles c``.
_COVERED = (
    "c.cycle_id >= r.first_cycle AND (r.last_cycle IS NULL"
    " OR c.cycle_id <= r.last_cycle) AND c.scan_error = ''"
)

#: The run tables: (table, key column, value columns).
_RUN_TABLES = (
    ("verdict_runs", "series_id", ("verdict", "message")),
    ("entity_runs", "target", ("passed", "failed", "worst_severity")),
)

#: The layout this build writes, stamped in ``PRAGMA user_version``.
#: Change it with the schema: a database with another stamp is
#: quarantined at open, never converted.
LAYOUT_VERSION = 1


class OtherLayoutError(Exception):
    """The database was written with another layout than this build's."""


def _check_layout(version: int) -> None:
    if version != LAYOUT_VERSION:
        raise OtherLayoutError(f"has layout version {version}, this build"
                               f" writes {LAYOUT_VERSION}")


@dataclass
class CycleRow:
    """One scan cycle as stored (the ``repro history`` table row)."""

    cycle_id: int
    started_at: float
    elapsed_s: float
    entities: int
    checks: int
    compliant: int
    noncompliant: int
    errors: int
    not_applicable: int
    compliance: float
    crawl_s: float
    discover_s: float
    parse_s: float
    evaluate_s: float
    composite_s: float
    parse_hits: int
    parse_misses: int
    parse_hit_rate: float
    rules_skipped: int
    rules_evaluated: int
    frames_clean: int
    frames_dirty: int
    scan_error: str
    #: Stage / frame attribution of a failed cycle (empty otherwise):
    #: lets ``repro history`` distinguish a crawl failure from a store
    #: failure without parsing the error message.
    scan_error_stage: str = ""
    scan_error_frame: str = ""

    @property
    def failed_cycle(self) -> bool:
        return bool(self.scan_error)

    def to_dict(self) -> dict:
        return asdict(self)


#: The ``cycles`` columns a reader selects, in :class:`CycleRow` order.
_CYCLE_COLUMNS = tuple(item.name for item in fields(CycleRow))


@dataclass
class VerdictRow:
    """One stored verdict (message is kept only for noncompliant and
    error verdicts)."""

    cycle_id: int
    target: str
    entity: str
    rule: str
    verdict: str
    severity: str
    message: str

    @property
    def key(self) -> VerdictKey:
        return (self.target, self.entity, self.rule)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EntityTrendRow:
    """Per-cycle health of one scanned frame."""

    cycle_id: int
    started_at: float
    target: str
    passed: int
    failed: int
    worst_severity: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class HistoryStoreStats(Stats):
    """Write-path counters of one :class:`HistoryStore` (this process)."""

    snapshot = True

    cycles_recorded: int = stat(
        "repro_history_cycles_recorded_total",
        "Scan cycles persisted to the history store by this process.")
    error_cycles_recorded: int = stat(
        "repro_history_error_cycles_total",
        "Cycles persisted as scan errors (no report produced).")
    rows_written: int = stat(
        "repro_history_rows_written_total",
        "Rows written to the history store (cycles + verdict and"
        " entity-rollup runs opened or closed).")
    write_seconds: float = stat("repro_history_write_seconds_total",
                                "Wall time spent writing history rows.",
                                default=0.0)
    cycles_pruned: int = stat("repro_history_cycles_pruned_total",
                              "Cycles removed by retention pruning.")
    db_cycles: int = stat(
        "repro_history_db_cycles",
        "Cycles currently resident in the history database.", "gauge")
    db_bytes: int = stat(
        "repro_history_db_bytes",
        "History database size on disk (0 for in-memory stores).", "gauge")

    def render(self) -> str:
        return (
            f"history store: {self.cycles_recorded} cycles recorded "
            f"({self.error_cycles_recorded} errored), "
            f"{self.rows_written:,} rows in {self.write_seconds:.3f}s, "
            f"{self.cycles_pruned} pruned; db holds {self.db_cycles} "
            f"cycles / {self.db_bytes:,} B"
        )


def report_verdict_map(report: ValidationReport) -> dict[VerdictKey, str]:
    """Report -> {(target, entity, rule): verdict value}.

    Built on :func:`repro.engine.delta.index_report`, the index
    :func:`repro.engine.drift.diff_reports` uses too (duplicate keys
    collapse last-wins), so history rows and drift entries always agree.
    """
    return {key: result.verdict.value
            for key, result in index_report(report).items()}


def _check_retention(retain_cycles: int | None) -> None:
    """Reject a retention that would drop the newest cycle."""
    if retain_cycles is not None and retain_cycles < 1:
        raise ValueError("retain_cycles must be >= 1")


class HistoryStore:
    """Append-only, thread-safe fleet-health store (SQLite, WAL)."""

    def __init__(self, path: str = ":memory:", *,
                 retain_cycles: int | None = None, readonly: bool = False):
        """With ``readonly``, only read an existing store: raise for a
        missing file or another layout, and create or move nothing."""
        _check_retention(retain_cycles)
        self.path = path
        self.retain_cycles = retain_cycles
        self.readonly = readonly
        self._lock = threading.RLock()
        self._conn = (self._open_readonly() if readonly
                      else self._open_for_writing())
        self._stats = HistoryStoreStats()
        self._load_state()

    def _open_for_writing(self) -> sqlite3.Connection:
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        try:
            if _CHAOS.armed:
                _CHAOS.fire("store.sqlite", self.path)
            return self._open()
        except sqlite3.Error as error:
            if not is_corruption(error) or self.path == ":memory:":
                raise
            # A corrupt history file must not kill the monitor.
            _chaos_absorbed(error)
            return self._reopen_cold(f"corrupt at open: {error}")
        except OtherLayoutError as error:
            return self._reopen_cold(str(error))

    def _open_readonly(self) -> sqlite3.Connection:
        """A ``mode=ro`` URI connection: no schema, pragma or prune."""
        with open(self.path, "rb") as handle:
            header = handle.read(64)
        if (header.startswith(b"SQLite format 3\0")
                and not os.path.exists(self.path + "-wal")):
            # No write-ahead log, so the header's stamp is current: another
            # layout is refused before a connection adds -wal/-shm files.
            _check_layout(int.from_bytes(header[60:64], "big"))
        uri = f"file:{urllib.parse.quote(os.path.abspath(self.path))}?mode=ro"
        conn = sqlite3.connect(uri, uri=True, check_same_thread=False)
        conn.row_factory = sqlite3.Row
        try:
            _check_layout(conn.execute("PRAGMA user_version").fetchone()[0])
        except BaseException:
            conn.close()
            raise
        return conn

    def _open(self) -> sqlite3.Connection:
        """Connect and apply pragmas; a new database gets the schema and
        the layout stamp.  Raises :class:`OtherLayoutError` for a
        database with any other stamp."""
        conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=30.0
        )
        conn.row_factory = sqlite3.Row
        try:
            # One read sees both: a schema version of 0 means no table
            # was ever created, so the database is new.
            version, schema = conn.execute(
                "SELECT user_version, schema_version FROM"
                " pragma_user_version, pragma_schema_version").fetchone()
            new = version == 0 and schema == 0
            if not new:
                _check_layout(version)
            # auto_vacuum must be configured before the first table
            # exists for incremental_vacuum to reclaim pruned pages.
            conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            if new:
                # One transaction, so a concurrent opener finds either no
                # table or the stamp.
                conn.executescript(
                    f"BEGIN IMMEDIATE; {_SCHEMA}"
                    f" PRAGMA user_version = {LAYOUT_VERSION}; COMMIT;")
        except BaseException:
            conn.close()
            raise
        return conn

    def _reopen_cold(self, reason: str) -> sqlite3.Connection:
        """Move the database aside, kept for the postmortem, and open a
        fresh one."""
        moved = quarantine_database(self.path, reason=reason)
        log.warning(
            "history store %s %s; quarantined to %s, starting a fresh"
            " database", self.path, reason, moved)
        return self._open()

    def _load_state(self) -> None:
        """Read the writer's in-memory state back from the database."""
        conn = self._conn
        #: In-memory twin of the ``series`` table; in steady state every
        #: verdict key hits this cache and the dimension is never read.
        self._series_ids: dict[VerdictKey, int] = {
            (row["target"], row["entity"], row["rule"]): row["series_id"]
            for row in conn.execute(
                "SELECT series_id, target, entity, rule FROM series"
            )
        }
        #: key -> (series id, verdict code, message) of its open run.
        self._open_runs: dict[VerdictKey, tuple[int, int, str]] = {
            (row["target"], row["entity"], row["rule"]):
                (row["series_id"], row["verdict"], row["message"])
            for row in conn.execute(
                "SELECT s.target, s.entity, s.rule, r.series_id, r.verdict,"
                " r.message FROM verdict_runs r JOIN series s"
                " ON s.series_id = r.series_id WHERE r.last_cycle IS NULL"
            )
        }
        #: target -> (passed, failed, worst severity) of its open run.
        self._open_rollups: dict[str, tuple[int, int, str]] = {
            row["target"]: (row["passed"], row["failed"],
                            row["worst_severity"])
            for row in conn.execute(
                "SELECT target, passed, failed, worst_severity FROM"
                " entity_runs WHERE last_cycle IS NULL"
            )
        }
        row = conn.execute(
            "SELECT MAX(cycle_id) AS newest, MAX(CASE WHEN scan_error = ''"
            " THEN cycle_id END) AS good FROM cycles"
        ).fetchone()
        #: The newest cycle and the newest successful one (which every
        #: open run reaches).
        self._newest_cycle: int | None = row["newest"]
        self._last_good: int | None = row["good"]
        #: Token of the report the open runs reflect (None: unknown, so
        #: the next cycle applies a full delta).
        self._applied: object = None

    def _sync_locked(self) -> None:
        """Reload the writer state if another writer appended a cycle
        since this one last did: its open runs are the truth now."""
        row = self._conn.execute(
            "SELECT MAX(cycle_id) AS newest FROM cycles").fetchone()
        if row["newest"] != self._newest_cycle:
            self._load_state()

    # ---- write path --------------------------------------------------------

    def record_cycle(self, summary: FleetSummary) -> int:
        """Persist one completed scan cycle; returns its cycle id."""
        stage = summary.stage_timings or StageTimings()
        cache = summary.cache_stats
        inc = summary.incremental
        rules_skipped = rules_evaluated = frames_clean = frames_dirty = 0
        if inc is not None and getattr(inc, "active", False):
            rules_skipped = inc.rules_skipped
            rules_evaluated = inc.rules_evaluated + inc.composites_evaluated
            frames_clean = inc.frames_clean
            frames_dirty = inc.frames_dirty
        report = summary.report
        counts = summary.counts()
        records: dict[VerdictKey, str] = {}
        delta = report.delta
        if delta is None or delta.provenance:
            # Direct field read: the common no-record case must not pay
            # the property descriptor on every result.  A deferred marker
            # is truthy, so provenance-on rows still materialize below.
            for result in report:
                if result._provenance is not None:
                    records[(result.target, result.entity,
                             result.rule.name)] = json.dumps(
                        result.provenance.to_dict(), separators=(",", ":"))
        compliant = counts[Verdict.COMPLIANT.value]
        noncompliant = counts[Verdict.NONCOMPLIANT.value]
        checked = compliant + noncompliant
        started = time.perf_counter()
        with self._lock:
            self._sync_locked()
            try:
                cursor = self._conn.execute(
                    "INSERT INTO cycles (started_at, elapsed_s, entities,"
                    " checks, compliant, noncompliant, errors,"
                    " not_applicable, compliance, crawl_s, discover_s,"
                    " parse_s, evaluate_s, composite_s, parse_hits,"
                    " parse_misses, parse_hit_rate, rules_skipped,"
                    " rules_evaluated, frames_clean, frames_dirty,"
                    " scan_error)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    (
                        summary.started_at or time.time(),
                        summary.elapsed_s,
                        summary.entities_scanned,
                        counts["total"],
                        compliant,
                        noncompliant,
                        counts[Verdict.ERROR.value],
                        counts[Verdict.NOT_APPLICABLE.value],
                        compliant / checked if checked else 1.0,
                        *map(stage.seconds, STAGES),
                        cache.hits if cache else 0,
                        cache.misses if cache else 0,
                        cache.hit_rate if cache else 0.0,
                        rules_skipped, rules_evaluated,
                        frames_clean, frames_dirty,
                        "",
                    ),
                )
                cycle_id = cursor.lastrowid
                self._newest_cycle = cycle_id
                written = self._apply_locked(cycle_id, report)
                written += self._apply_rollups_locked(cycle_id,
                                                      summary.entities)
                if records:
                    series_ids = self._series_ids
                    self._bulk_insert_locked(
                        "INSERT INTO provenance (cycle_id, series_id,"
                        " record) VALUES ",
                        3,
                        [
                            (cycle_id, series_ids[key], record)
                            for key, record in records.items()
                        ],
                    )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                self._load_state()
                raise
            self._last_good = cycle_id
            self._applied = report_token(report)
            pruned = self._prune_locked()
            self._stats.cycles_recorded += 1
            self._stats.rows_written += 1 + written + len(records)
            self._stats.cycles_pruned += pruned
            self._stats.write_seconds += time.perf_counter() - started
        return cycle_id

    def _apply_locked(self, cycle_id: int, report: ValidationReport) -> int:
        """Bring the open runs to ``report``'s verdicts as of
        ``cycle_id``; returns the series and run rows written.

        The one apply step: the report's verdict delta when it is based
        on the report last recorded, else every key of the report and
        each open run it lacks (:func:`~repro.engine.delta.changes_since`).
        A series whose verdict code or stored message changed closes its
        open run at the previous successful cycle and opens one here.
        """
        codes = _CODES_BY_MEMBER
        keep_message = _MESSAGE_CODES
        open_runs = self._open_runs
        series_ids = self._series_ids
        closed: list[int] = []
        opened: list[tuple] = []
        new_series = 0
        for key, after in changes_since(report, self._applied,
                                        open_runs).items():
            current = open_runs.get(key)
            if after is None:
                if current is not None:
                    closed.append(current[0])
                    del open_runs[key]
                continue
            code = codes[after.verdict]
            message = after.message if code in keep_message else ""
            if current is not None:
                if current[1] == code and current[2] == message:
                    continue
                closed.append(current[0])
            series_id = series_ids.get(key)
            if series_id is None:
                cursor = self._conn.execute(
                    "INSERT INTO series (target, entity, rule, severity)"
                    " VALUES (?,?,?,?)",
                    (*key, after.rule.severity),
                )
                series_id = series_ids[key] = cursor.lastrowid
                new_series += 1
            open_runs[key] = (series_id, code, message)
            opened.append((series_id, cycle_id, code, message))
        return new_series + self._write_runs_locked(_RUN_TABLES[0], closed,
                                                    opened)

    def _apply_rollups_locked(self, cycle_id: int, entities: dict) -> int:
        """Bring the open rollup runs to this cycle's entity rollups;
        returns the run rows written."""
        open_rollups = self._open_rollups
        closed = [target for target in open_rollups
                  if target not in entities]
        for target in closed:
            del open_rollups[target]
        opened: list[tuple] = []
        for target, rollup in entities.items():
            values = (rollup.passed, rollup.failed, rollup.worst_severity)
            current = open_rollups.get(target)
            if current == values:
                continue
            if current is not None:
                closed.append(target)
            open_rollups[target] = values
            opened.append((target, cycle_id, *values))
        return self._write_runs_locked(_RUN_TABLES[1], closed, opened)

    def _write_runs_locked(self, spec: tuple, closed: list,
                           opened: list[tuple]) -> int:
        """Close the open runs of ``closed`` keys at the previous
        successful cycle and insert ``opened`` (key, first cycle,
        values...) rows; returns the rows written."""
        table, key, values = spec
        if closed:
            self._conn.executemany(
                f"UPDATE {table} SET last_cycle = ? WHERE {key} = ?"
                " AND last_cycle IS NULL",
                [(self._last_good, item) for item in closed],
            )
        self._bulk_insert_locked(
            f"INSERT INTO {table} ({key}, first_cycle, {', '.join(values)})"
            " VALUES ",
            2 + len(values),
            opened,
        )
        return len(closed) + len(opened)

    #: Rows per multi-VALUES INSERT.  225 rows x <=5 columns stays under
    #: SQLite's historical 999 bound-parameter limit; a single chunked
    #: statement is ~2x faster than executemany for a bulk append (one
    #: bytecode dispatch per chunk instead of per row).
    _INSERT_CHUNK_ROWS = 225

    def _bulk_insert_locked(self, prefix: str, ncols: int,
                            rows: list[tuple]) -> None:
        """Append ``rows`` via chunked multi-VALUES INSERTs.

        Caller holds the lock.  ``prefix`` must end with ``VALUES `` and
        ``ncols`` matches the tuple arity.
        """
        placeholder = "(" + ",".join("?" * ncols) + ")"
        for start in range(0, len(rows), self._INSERT_CHUNK_ROWS):
            chunk = rows[start:start + self._INSERT_CHUNK_ROWS]
            params: list = []
            for row in chunk:
                params.extend(row)
            self._conn.execute(
                prefix + ",".join([placeholder] * len(chunk)), params
            )

    def record_scan_error(self, message: str, *,
                          stage: str = "", frame: str = "",
                          started_at: float | None = None,
                          elapsed_s: float = 0.0) -> int:
        """Persist a cycle that died before producing a report.

        ``stage`` names where the pipeline failed (``crawl``,
        ``validate``, ``store``...) and ``frame`` the target being
        processed when known, so operators can tell a crawl failure
        from a store failure straight from ``repro history``.  The open
        runs stay open: a failed cycle holds no verdicts.
        """
        started = time.perf_counter()
        with self._lock:
            self._sync_locked()
            cursor = self._conn.execute(
                "INSERT INTO cycles (started_at, elapsed_s, scan_error,"
                " scan_error_stage, scan_error_frame)"
                " VALUES (?,?,?,?,?)",
                (started_at if started_at is not None else time.time(),
                 elapsed_s, message or "scan failed", stage or "",
                 frame or ""),
            )
            self._conn.commit()
            cycle_id = cursor.lastrowid
            self._newest_cycle = cycle_id
            pruned = self._prune_locked()
            self._stats.cycles_recorded += 1
            self._stats.error_cycles_recorded += 1
            self._stats.rows_written += 1
            self._stats.cycles_pruned += pruned
            self._stats.write_seconds += time.perf_counter() - started
        return cycle_id

    def _prune_locked(self) -> int:
        if self.retain_cycles is None:
            return 0
        row = self._conn.execute(
            "SELECT MAX(cycle_id) AS newest FROM cycles"
        ).fetchone()
        if row["newest"] is None:
            return 0
        horizon = row["newest"] - self.retain_cycles
        cursor = self._conn.execute(
            "DELETE FROM cycles WHERE cycle_id <= ?", (horizon,)
        )
        if cursor.rowcount <= 0:
            return 0
        # Explicit cascade (per-row FK enforcement stays off for write
        # speed); the series dimension is intentionally retained.  A run
        # reaching past the horizon stays: readers only expand runs over
        # cycles still present.
        for table, *_rest in _RUN_TABLES:
            self._conn.execute(
                f"DELETE FROM {table} WHERE last_cycle <= ?", (horizon,)
            )
        self._conn.execute(
            "DELETE FROM provenance WHERE cycle_id <= ?", (horizon,)
        )
        self._conn.commit()
        self._conn.execute("PRAGMA incremental_vacuum")
        return cursor.rowcount

    def prune(self, retain_cycles: int | None = None) -> int:
        """Keep only the newest ``retain_cycles`` cycles; returns the
        number pruned.  With no argument, applies the configured
        retention."""
        _check_retention(retain_cycles)
        with self._lock:
            if retain_cycles is not None:
                previous, self.retain_cycles = (
                    self.retain_cycles, retain_cycles
                )
                try:
                    return self._prune_locked()
                finally:
                    self.retain_cycles = previous
            return self._prune_locked()

    # ---- read path ---------------------------------------------------------

    def cycle_count(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM cycles"
            ).fetchone()
        return int(row["n"])

    def latest_cycle_id(self) -> int | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(cycle_id) AS latest FROM cycles"
            ).fetchone()
        return row["latest"]

    def successful_cycle_ids(self, last: int) -> list[int]:
        """The newest ``last`` cycles that produced a report, oldest
        first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT cycle_id FROM cycles WHERE scan_error = ''"
                " ORDER BY cycle_id DESC LIMIT ?", (max(0, last),)
            ).fetchall()
        return [row["cycle_id"] for row in reversed(rows)]

    def cycles(self, last: int | None = None) -> list[CycleRow]:
        """The newest ``last`` cycles (all when None), oldest first."""
        query = f"SELECT {', '.join(_CYCLE_COLUMNS)} FROM cycles"
        params: tuple = ()
        if last is not None:
            query += " ORDER BY cycle_id DESC LIMIT ?"
            params = (max(0, last),)
        else:
            query += " ORDER BY cycle_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        out = [CycleRow(**{name: row[name] for name in _CYCLE_COLUMNS})
               for row in rows]
        if last is not None:
            out.reverse()
        return out

    def cycle(self, cycle_id: int) -> CycleRow | None:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(_CYCLE_COLUMNS)} FROM cycles"
                " WHERE cycle_id = ?",
                (cycle_id,),
            ).fetchone()
        if row is None:
            return None
        return CycleRow(**{name: row[name] for name in _CYCLE_COLUMNS})

    def verdicts(self, cycle_id: int) -> list[VerdictRow]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT c.cycle_id, s.target, s.entity, s.rule, r.verdict,"
                " s.severity, r.message FROM cycles c"
                f" JOIN verdict_runs r ON {_COVERED}"
                " JOIN series s ON s.series_id = r.series_id"
                " WHERE c.cycle_id = ? ORDER BY s.target, s.entity, s.rule",
                (cycle_id,),
            ).fetchall()
        return [
            VerdictRow(
                cycle_id=row["cycle_id"], target=row["target"],
                entity=row["entity"], rule=row["rule"],
                verdict=_VERDICT_NAMES[row["verdict"]],
                severity=row["severity"], message=row["message"],
            )
            for row in rows
        ]

    def verdict_map(self, cycle_id: int) -> dict[VerdictKey, str]:
        """{(target, entity, rule): verdict} for one cycle -- the stored
        twin of :func:`report_verdict_map`."""
        return {row.key: row.verdict for row in self.verdicts(cycle_id)}

    def verdict_windows(
        self, window: int, *, successful_only: bool = False
    ) -> dict[VerdictKey, list[tuple[int, str]]]:
        """Per-key verdict series over the newest ``window`` cycles,
        oldest first; ``successful_only`` counts only cycles that
        produced a report (the flap detector's working set).  Keys come
        in order of their first cycle in the window."""
        with self._lock:
            where = " WHERE scan_error = ''" if successful_only else ""
            row = self._conn.execute(
                "SELECT MIN(cycle_id) AS low FROM (SELECT cycle_id FROM"
                f" cycles{where} ORDER BY cycle_id DESC LIMIT ?)",
                (max(1, window),),
            ).fetchone()
            low = row["low"]
            if low is None:
                return {}
            ids = [item["cycle_id"] for item in self._conn.execute(
                "SELECT cycle_id FROM cycles WHERE cycle_id >= ? AND"
                " scan_error = '' ORDER BY cycle_id", (low,))]
            runs = self._conn.execute(
                "SELECT r.series_id, s.target, s.entity, s.rule,"
                " r.first_cycle, r.last_cycle, r.verdict FROM verdict_runs r"
                " JOIN series s ON s.series_id = r.series_id"
                " WHERE r.last_cycle IS NULL OR r.last_cycle >= ?",
                (low,),
            ).fetchall()
        found: dict[VerdictKey, tuple[int, list[tuple[int, str]]]] = {}
        for run in runs:
            start = bisect.bisect_left(ids, run["first_cycle"])
            end = (len(ids) if run["last_cycle"] is None
                   else bisect.bisect_right(ids, run["last_cycle"]))
            if start >= end:
                continue
            key = (run["target"], run["entity"], run["rule"])
            verdict = _VERDICT_NAMES[run["verdict"]]
            entry = found.setdefault(key, (run["series_id"], []))
            entry[1].extend((cycle_id, verdict) for cycle_id in ids[start:end])
        for _series_id, series in found.values():
            series.sort()
        ordered = sorted(found.items(),
                         key=lambda item: (item[1][1][0][0], item[1][0]))
        return {key: series for key, (_series_id, series) in ordered}

    def rule_history(self, target: str, entity: str, rule: str,
                     last: int | None = None) -> list[tuple[int, str]]:
        """(cycle_id, verdict) series of one rule, oldest first."""
        with self._lock:
            series_id = self._series_ids.get((target, entity, rule))
            if series_id is None:
                return []
            query = (
                "SELECT c.cycle_id, r.verdict FROM verdict_runs r"
                f" JOIN cycles c ON {_COVERED} WHERE r.series_id = ?"
                " ORDER BY c.cycle_id"
            )
            params: tuple = (series_id,)
            if last is not None:
                query += " DESC LIMIT ?"
                params = (series_id, max(0, last))
            rows = self._conn.execute(query, params).fetchall()
        out = [(row["cycle_id"], _VERDICT_NAMES[row["verdict"]])
               for row in rows]
        if last is not None:
            out.reverse()
        return out

    def provenance_for(self, target: str, entity: str, rule: str,
                       cycle_id: int | None = None) -> dict | None:
        """The stored provenance payload of one verdict, parsed.

        With ``cycle_id=None`` returns the newest stored record for the
        series.  ``None`` when the cycle never recorded provenance (the
        default, non ``--provenance`` write path) or the payload does not
        parse.
        """
        with self._lock:
            series_id = self._series_ids.get((target, entity, rule))
            if series_id is None:
                return None
            if cycle_id is None:
                row = self._conn.execute(
                    "SELECT record FROM provenance WHERE series_id = ?"
                    " ORDER BY cycle_id DESC LIMIT 1",
                    (series_id,),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT record FROM provenance WHERE cycle_id = ?"
                    " AND series_id = ?",
                    (cycle_id, series_id),
                ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row["record"])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def entity_trend(self, target: str,
                     last: int | None = None) -> list[EntityTrendRow]:
        """Per-cycle pass/fail trend of one scanned frame, oldest first."""
        query = (
            "SELECT c.cycle_id, c.started_at, r.target, r.passed,"
            " r.failed, r.worst_severity FROM entity_runs r"
            f" JOIN cycles c ON {_COVERED}"
            " WHERE r.target = ? ORDER BY c.cycle_id"
        )
        params: tuple = (target,)
        if last is not None:
            query += " DESC LIMIT ?"
            params = (target, max(0, last))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        out = [EntityTrendRow(**dict(row)) for row in rows]
        if last is not None:
            out.reverse()
        return out

    def targets(self) -> list[str]:
        """Every frame ever rolled up, sorted."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT target FROM entity_runs r WHERE EXISTS"
                f" (SELECT 1 FROM cycles c WHERE {_COVERED}) ORDER BY target"
            ).fetchall()
        return [row["target"] for row in rows]

    # ---- bookkeeping -------------------------------------------------------

    def stats(self) -> HistoryStoreStats:
        with self._lock:
            snapshot = replace(self._stats)
            try:
                snapshot.db_cycles = int(self._conn.execute(
                    "SELECT COUNT(*) AS n FROM cycles"
                ).fetchone()["n"])
            except sqlite3.Error:
                # A pull-style metrics scrape can outlive the store
                # (e.g. --metrics-out written at exit); report the
                # in-memory tallies with a zero gauge instead of dying.
                pass
        if self.path != ":memory:":
            # In WAL mode new rows sit in the -wal file until a
            # checkpoint copies them into the main one.
            for name in (self.path, self.path + "-wal"):
                try:
                    snapshot.db_bytes += os.path.getsize(name)
                except OSError:
                    pass
        return snapshot

    def close(self) -> None:
        with self._lock:
            if not self.readonly:
                try:
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.Error:  # read-only media, torn WAL, ...
                    pass
            self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
